// asyncdr-sema: disable-file(DR001) the event stream timestamps telemetry
// with real (monotonic) wall time by design; nothing inside a dr::World
// reads it, and the deterministic campaign artifact (the summary JSON)
// carries no wall-clock fields.
// asyncdr-sema: disable-file(DR011) the JSONL stream is an observability
// artifact written outside any world — the exact analogue of the bench/CLI
// report writers the rule exempts, not model-state persistence.
#include "campaign/events.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>

namespace asyncdr::campaign {

struct EventStream::Impl {
  std::mutex mu;
  std::ofstream out;
  std::uint64_t seq = 0;
  std::chrono::steady_clock::time_point t0;
};

EventStream::EventStream() : impl_(std::make_unique<Impl>()) {}
EventStream::~EventStream() = default;

std::unique_ptr<EventStream> EventStream::open(const std::string& path) {
  std::unique_ptr<EventStream> stream(new EventStream());
  stream->impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!stream->impl_->out) {
    // asyncdr-sema: allow(DR004) operator-facing warning; the campaign
    // itself proceeds without the stream.
    std::fprintf(stderr, "warning: cannot open campaign event stream %s\n",
                 path.c_str());
    return nullptr;
  }
  stream->impl_->t0 = std::chrono::steady_clock::now();
  return stream;
}

void EventStream::emit(const char* kind, const obs::Json& fields) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mu);
  // seq and ts are taken under the same lock that serializes the write, so
  // both are monotone in file order (steady_clock never goes backwards).
  const double ts_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - impl.t0)
          .count();
  obs::Json line = obs::Json::object();
  line["ev"] = kind;
  line["seq"] = impl.seq;
  line["ts_ms"] = ts_ms;
  if (fields.is_object()) {
    for (const auto& [key, value] : fields.members()) {
      line[key] = value;
    }
  }
  impl.out << line.dump() << '\n';
  impl.out.flush();
  ++impl.seq;
}

std::uint64_t EventStream::emitted() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->seq;
}

}  // namespace asyncdr::campaign
