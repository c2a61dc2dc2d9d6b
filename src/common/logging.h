// Assertion facilities shared by every module.
//
// CHECK macros are always on — an invariant violation inside a
// discrete-event simulation silently corrupts every downstream result, so we
// prefer a loud abort.
#ifndef FLOCK_COMMON_LOGGING_H_
#define FLOCK_COMMON_LOGGING_H_

#include <sstream>

namespace flock {
namespace internal {

// A failed check: collects the streamed message, then prints it and aborts
// when destroyed.
class LogMessage {
 public:
  LogMessage(const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Turns the streamed expression into void, so a check is one expression.
struct LogMessageVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace flock

#define FLOCK_CHECK(cond)                                                     \
  (cond) ? (void)0                                                            \
         : ::flock::internal::LogMessageVoidify() &                           \
               ::flock::internal::LogMessage(__FILE__, __LINE__).stream()     \
               << "Check failed: " #cond " "

#define FLOCK_CHECK_OP(op, a, b)                                              \
  ((a)op(b)) ? (void)0                                                        \
             : ::flock::internal::LogMessageVoidify() &                       \
                   ::flock::internal::LogMessage(__FILE__, __LINE__).stream() \
                   << "Check failed: " #a " " #op " " #b " (" << (a)          \
                   << " vs " << (b) << ") "

#define FLOCK_CHECK_EQ(a, b) FLOCK_CHECK_OP(==, a, b)
#define FLOCK_CHECK_NE(a, b) FLOCK_CHECK_OP(!=, a, b)
#define FLOCK_CHECK_LT(a, b) FLOCK_CHECK_OP(<, a, b)
#define FLOCK_CHECK_LE(a, b) FLOCK_CHECK_OP(<=, a, b)
#define FLOCK_CHECK_GT(a, b) FLOCK_CHECK_OP(>, a, b)
#define FLOCK_CHECK_GE(a, b) FLOCK_CHECK_OP(>=, a, b)

#endif  // FLOCK_COMMON_LOGGING_H_
