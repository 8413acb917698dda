#include "common/digest.h"

#include <cstdio>

namespace acme::common {

std::string fnv1a_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace acme::common
