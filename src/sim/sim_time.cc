#include "sim/sim_time.h"

#include <cstdio>

namespace locaware::sim {

std::string FormatSimTime(SimTime t) {
  char buf[48];
  if (t >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%.3fs", ToSeconds(t));
  } else if (t >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.3fms", ToMs(t));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(t));
  }
  return buf;
}

}  // namespace locaware::sim
