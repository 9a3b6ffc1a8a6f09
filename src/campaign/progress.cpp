// asyncdr-sema: disable-file(DR001) throughput/ETA are wall-clock
// quantities by definition; the progress line is operator telemetry and
// never feeds back into any world or deterministic artifact.
// asyncdr-sema: disable-file(DR004) rendering a stderr status line is this
// file's whole job.
#include "campaign/progress.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <mutex>

namespace asyncdr::campaign {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}
}  // namespace

struct Progress::Impl {
  std::string name;
  std::size_t total = 0;
  bool enabled = false;
  bool tty = false;

  std::mutex mu;
  std::size_t done = 0;
  std::size_t failed = 0;
  bool have_worst = false;
  std::uint64_t worst_seed = 0;
  std::size_t worst_q = 0;
  bool worst_failed = false;
  Clock::time_point start = Clock::now();
  Clock::time_point last_draw;
  std::size_t next_plain_marker = 0;
  bool line_live = false;
  bool finished = false;

  void draw_locked(bool force) {
    if (!enabled) return;
    const double elapsed = seconds_since(start);
    const double rate = elapsed > 0 ? static_cast<double>(done) / elapsed : 0;
    const double eta =
        rate > 0 ? static_cast<double>(total - done) / rate : 0;
    char worst[64] = "-";
    if (have_worst) {
      std::snprintf(worst, sizeof worst, "seed %llu Q=%zu%s",
                    static_cast<unsigned long long>(worst_seed), worst_q,
                    worst_failed ? " FAIL" : "");
    }
    if (tty) {
      // Throttle redraws: a sweep of sub-millisecond worlds would otherwise
      // spend its time repainting the terminal.
      if (!force && seconds_since(last_draw) < 0.05 && done < total) return;
      last_draw = Clock::now();
      std::fprintf(stderr,
                   "\r[%s] %zu/%zu (%3.0f%%) | %.1f runs/s eta %.0fs | "
                   "fail %zu | worst %s\x1b[K",
                   name.c_str(), done, total,
                   total ? 100.0 * static_cast<double>(done) /
                               static_cast<double>(total)
                         : 100.0,
                   rate, eta, failed, worst);
      line_live = true;
    } else {
      // Piped stderr: one plain line per ~10% of the campaign.
      if (!force && done < next_plain_marker) return;
      next_plain_marker = done + (total > 10 ? total / 10 : 1);
      std::fprintf(stderr,
                   "[%s] %zu/%zu | %.1f runs/s | fail %zu | worst %s\n",
                   name.c_str(), done, total, rate, failed, worst);
    }
  }
};

Progress::Progress(std::string name, std::size_t total, bool enabled)
    : impl_(std::make_unique<Impl>()) {
  impl_->name = std::move(name);
  impl_->total = total;
  impl_->enabled = enabled;
  impl_->tty = enabled && isatty(fileno(stderr)) != 0;
}

Progress::~Progress() { finish(); }

void Progress::on_run_done(std::uint64_t seed, bool failed, std::size_t q) {
  if (!impl_->enabled) return;
  std::lock_guard<std::mutex> lock(impl_->mu);
  ++impl_->done;
  if (failed) ++impl_->failed;
  // Failures always outrank clean runs; among equals the larger Q wins.
  const bool worse =
      !impl_->have_worst ||
      (failed && !impl_->worst_failed) ||
      (failed == impl_->worst_failed && q > impl_->worst_q);
  if (worse) {
    impl_->have_worst = true;
    impl_->worst_seed = seed;
    impl_->worst_q = q;
    impl_->worst_failed = failed;
  }
  impl_->draw_locked(false);
}

void Progress::finish() {
  if (!impl_->enabled) return;
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->finished) return;
  impl_->finished = true;
  impl_->draw_locked(true);
  if (impl_->line_live) std::fputc('\n', stderr);
}

}  // namespace asyncdr::campaign
