#include "apps/conference.h"

#include <algorithm>
#include <cmath>

namespace wgtt::apps {

ConferenceApp::ConferenceApp(sim::Scheduler& sched,
                             transport::IpIdAllocator& ip_ids,
                             ConferenceConfig cfg)
    : sched_(sched), ip_ids_(ip_ids), cfg_(cfg) {}

void ConferenceApp::start() {
  if (running_) return;
  running_ = true;
  send_frame();
  sched_.schedule(Time::sec(1), [this]() { sample_fps(); });
  if (cfg_.adaptive) {
    sched_.schedule(cfg_.adaptation_period, [this]() { adapt(); });
  }
}

void ConferenceApp::send_frame() {
  if (!running_) return;
  const double nominal_frame_bytes =
      cfg_.nominal_bitrate_bps / 8.0 / cfg_.frame_rate;
  const auto frame_bytes = static_cast<std::size_t>(
      std::max(200.0, nominal_frame_bytes * scale_));
  const std::size_t fragments =
      (frame_bytes + cfg_.fragment_bytes - 1) / cfg_.fragment_bytes;
  const std::uint64_t frame_id = frames_sent_++;
  ++frames_sent_this_period_;

  for (std::size_t f = 0; f < fragments; ++f) {
    net::Packet p;
    p.type = net::PacketType::kData;
    p.src = cfg_.src;
    p.dst = cfg_.dst;
    p.flow_id = cfg_.flow_id;
    // seq encodes (frame, fragment, count) — 16 bits each is plenty.
    p.seq = (frame_id << 32) | (static_cast<std::uint64_t>(f) << 16) |
            fragments;
    p.ip_id = ip_ids_.next(cfg_.src);
    const std::size_t remaining = frame_bytes - f * cfg_.fragment_bytes;
    p.size_bytes = std::min(cfg_.fragment_bytes, remaining) + 28;
    p.created = sched_.now();
    if (transmit) {
      obs_.ledger(p, obs::Ledger::kSent);
      transmit(net::make_packet(std::move(p)));
    }
  }
  sched_.schedule(Time::sec(1.0 / cfg_.frame_rate), [this]() { send_frame(); });
}

void ConferenceApp::on_packet(const net::PacketPtr& pkt) {
  obs_.ledger(*pkt, obs::Ledger::kDelivered);
  const std::uint64_t frame_id = pkt->seq >> 32;
  const std::size_t fragments = pkt->seq & 0xFFFF;
  FrameProgress& fp = pending_[frame_id];
  fp.fragments_expected = fragments;
  if (++fp.fragments_received >= fp.fragments_expected) {
    ++frames_rendered_;
    ++rendered_this_second_;
    ++frames_rendered_this_period_;
    pending_.erase(frame_id);
  }
  // Garbage-collect frames that will never complete (old ids).
  while (!pending_.empty() &&
         pending_.begin()->first + 120 < frames_sent_) {
    pending_.erase(pending_.begin());
  }
}

void ConferenceApp::sample_fps() {
  if (!running_) return;
  fps_samples_.add(static_cast<double>(rendered_this_second_));
  rendered_this_second_ = 0;
  sched_.schedule(Time::sec(1), [this]() { sample_fps(); });
}

void ConferenceApp::adapt() {
  if (!running_) return;
  if (frames_sent_this_period_ > 0) {
    const double delivery =
        static_cast<double>(frames_rendered_this_period_) /
        static_cast<double>(frames_sent_this_period_);
    if (delivery < 0.9) {
      scale_ = std::max(cfg_.min_scale, scale_ * 0.7);  // drop resolution
    } else if (delivery > 0.95) {
      scale_ = std::min(1.0, scale_ * 1.1);  // recover resolution
    }
  }
  frames_sent_this_period_ = 0;
  frames_rendered_this_period_ = 0;
  sched_.schedule(cfg_.adaptation_period, [this]() { adapt(); });
}

}  // namespace wgtt::apps
