#include "rtw/core/lane.hpp"

namespace rtw::core {

std::string_view to_string(LaneFamily family) noexcept {
  switch (family) {
    case LaneFamily::None: return "none";
    case LaneFamily::Deadline: return "deadline";
  }
  return "?";
}

}  // namespace rtw::core
