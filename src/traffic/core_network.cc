#include "traffic/core_network.h"

#include <array>

namespace cellscope::traffic {

namespace {
constexpr std::array<std::string_view, kSignalingEventTypeCount> kEventNames =
    {"Attach",          "Authentication",        "Session establishment",
     "Bearer setup",    "Bearer release",        "Tracking Area Update",
     "ECM-IDLE",        "Service request",       "Handover",
     "Detach"};
}  // namespace

std::string_view signaling_event_name(SignalingEventType type) {
  return kEventNames[static_cast<int>(type)];
}

SignalingGenerator::SignalingGenerator(const SignalingParams& params)
    : params_(params) {}

}  // namespace cellscope::traffic
