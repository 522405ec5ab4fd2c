/**
 * @file
 * Typed error propagation for subsystem boundaries.
 *
 * The engine is a service front-end: callers need to distinguish "your
 * input was malformed" from "you ran out of time" from "the system is
 * overloaded", and they need to do it without string-matching exception
 * messages. Status carries a typed code plus a human-readable message;
 * Result<T> is the value-or-Status sum type returned across subsystem
 * boundaries (engine futures, admission gates, batch drivers).
 *
 * Inside deep kernel loops, unwinding by hand would contort every
 * recurrence, so cancellation uses one exception type — StatusError —
 * that wraps a Status and is caught exactly once, at the boundary, where
 * it becomes a failed Result. No other exception type crosses the engine
 * boundary: std::bad_alloc maps to ResourceExhausted, FatalError (invalid
 * configuration/input) to InvalidInput, anything else to Internal.
 */

#ifndef GMX_COMMON_STATUS_HH
#define GMX_COMMON_STATUS_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/types.hh"

namespace gmx {

/** Stable error taxonomy shared by every subsystem. */
enum class StatusCode : u8 {
    Ok = 0,
    InvalidInput,      //!< malformed request (empty/oversized/mismatched)
    DeadlineExceeded,  //!< the request's deadline passed before completion
    Cancelled,         //!< the caller cancelled the request
    ResourceExhausted, //!< memory budget (or an allocation) refused the work
    Overloaded,        //!< backpressure: queue full, request rejected or shed
    EngineStopped,     //!< submitted to an engine after stop()
    Internal,          //!< unexpected failure inside an aligner or the engine
    Unavailable,       //!< every backend route is broken, or server stopping
};

/** Stable upper-snake name for a code ("DEADLINE_EXCEEDED", ...). */
const char *statusCodeName(StatusCode code);

/** A typed error code with an optional human-readable message. */
class Status
{
  public:
    /** Default: Ok. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "DEADLINE_EXCEEDED: request deadline passed" (or just the name). */
    std::string toString() const;

    // Named constructors keep call sites readable.
    static Status invalidInput(std::string msg)
    {
        return {StatusCode::InvalidInput, std::move(msg)};
    }
    static Status deadlineExceeded(std::string msg)
    {
        return {StatusCode::DeadlineExceeded, std::move(msg)};
    }
    static Status cancelled(std::string msg)
    {
        return {StatusCode::Cancelled, std::move(msg)};
    }
    static Status resourceExhausted(std::string msg)
    {
        return {StatusCode::ResourceExhausted, std::move(msg)};
    }
    static Status overloaded(std::string msg)
    {
        return {StatusCode::Overloaded, std::move(msg)};
    }
    static Status engineStopped(std::string msg)
    {
        return {StatusCode::EngineStopped, std::move(msg)};
    }
    static Status internal(std::string msg)
    {
        return {StatusCode::Internal, std::move(msg)};
    }
    static Status unavailable(std::string msg)
    {
        return {StatusCode::Unavailable, std::move(msg)};
    }

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/**
 * The one exception used to unwind deep kernel loops on cancellation or
 * deadline expiry. Thrown by CancelGate::check(), caught at the engine
 * boundary and converted into a failed Result.
 */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.toString()), status_(std::move(status))
    {}

    const Status &status() const { return status_; }

  private:
    Status status_;
};

/**
 * Value-or-Status. A Result either holds a T (ok) or a non-Ok Status.
 * This is the payload type of engine futures: futures are always
 * fulfilled with a value — never an exception — so waiting on one cannot
 * throw and a request's outcome is always a typed Status.
 */
template <typename T>
class Result
{
  public:
    /** Success. */
    Result(T value) : value_(std::move(value)) {}

    /** Failure; @p status must not be Ok. */
    Result(Status status) : status_(std::move(status))
    {
        GMX_ASSERT(!status_.ok(), "Result failure requires a non-Ok status");
    }

    bool ok() const { return value_.has_value(); }
    const Status &status() const { return status_; }
    StatusCode code() const
    {
        return ok() ? StatusCode::Ok : status_.code();
    }

    /** The held value; the Result must be ok (asserted). */
    T &value()
    {
        GMX_ASSERT(ok(), "Result::value() on a failed Result");
        return *value_;
    }
    const T &value() const
    {
        GMX_ASSERT(ok(), "Result::value() on a failed Result");
        return *value_;
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status status_; //!< Ok when value_ holds the result
    std::optional<T> value_;
};

} // namespace gmx

#endif // GMX_COMMON_STATUS_HH
