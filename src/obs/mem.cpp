#include "obs/mem.hpp"

#include <fstream>
#include <sstream>
#include <string>

#if defined(__linux__)
#include <malloc.h>
#endif

namespace asyncdr::obs {
namespace {

/// VmHWM (peak resident set) from /proc/self/status, in bytes; 0 when
/// the file or the field is unavailable (non-Linux).
std::uint64_t read_vm_hwm_bytes() {
  // asyncdr-sema: allow(DR011) reads the kernel's procfs, not simulation
  //   persistence; RSS measurement cannot go through dr::Journal.
  std::ifstream status("/proc/self/status");
  if (!status.good()) return 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb * 1024;
  }
  return 0;
}

/// Attempt the peak-RSS reset. Writing "5" clears both the soft-dirty
/// bits and the peak counters; requires write permission on the proc
/// file (refused in some containers/hardened kernels).
bool reset_peak_rss() {
  // asyncdr-sema: allow(DR011) procfs control knob, not simulation state.
  std::ofstream f("/proc/self/clear_refs");
  if (!f.good()) return false;
  f << "5\n";
  f.flush();
  return f.good();
}

}  // namespace

void RssTracker::begin() {
#if defined(__linux__)
  // Return freed arena pages to the kernel first so a previous region's
  // cached-but-free memory is not attributed to this one.
  malloc_trim(0);
#endif
  if (read_vm_hwm_bytes() == 0) {
    mechanism_ = Mechanism::kUnavailable;
    baseline_bytes_ = 0;
    return;
  }
  if (reset_peak_rss()) {
    mechanism_ = Mechanism::kClearRefs;
    // After the reset VmHWM collapses to the *current* RSS; that is the
    // floor the region's peak grows from.
    baseline_bytes_ = read_vm_hwm_bytes();
    return;
  }
  mechanism_ = Mechanism::kBaselineDelta;
  baseline_bytes_ = read_vm_hwm_bytes();
}

std::uint64_t RssTracker::peak_delta_bytes() const {
  if (mechanism_ == Mechanism::kUnavailable) return 0;
  const std::uint64_t now = read_vm_hwm_bytes();
  return now > baseline_bytes_ ? now - baseline_bytes_ : 0;
}

const char* RssTracker::mechanism_name() const noexcept {
  switch (mechanism_) {
    case Mechanism::kClearRefs: return "clear_refs";
    case Mechanism::kBaselineDelta: return "baseline_delta";
    case Mechanism::kUnavailable: return "unavailable";
  }
  return "unavailable";
}

}  // namespace asyncdr::obs
