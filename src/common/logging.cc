#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace flock {
namespace internal {

LogMessage::LogMessage(const char* file, int line) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[F " << (base ? base + 1 : file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal
}  // namespace flock
