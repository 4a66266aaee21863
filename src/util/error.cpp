#include "util/error.hpp"

namespace trkx {

Error::~Error() = default;

namespace detail {

void throw_check_failure(const char* expr, const char* file, int line) {
  throw_check_failure(expr, file, line, std::string());
}

void throw_check_failure(const char* expr, const char* file, int line,
                         const std::string& msg) {
  std::ostringstream os;
  os << "TRKX_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace detail
}  // namespace trkx
