// Remote video conferencing case study (paper §5.4, Fig. 24).
//
// A real-time video sender emits frames at a fixed frame rate; each frame
// is fragmented into UDP datagrams.  The receiver counts a frame as
// rendered only when every fragment arrives, and samples rendered
// frames-per-second once per second (the paper screen-scrapes the apps'
// fps counters with scrot at 1 Hz).
//
// Two sender profiles:
//  * Skype-like:   fixed 720p frame size — loss directly costs frames;
//  * Hangouts-like: resolution-adaptive — frame size shrinks when recent
//    delivery degrades, which preserves fps at lower quality (matching the
//    paper's observation that Hangouts reaches ~56 fps where Skype holds
//    ~20).
#pragma once

#include <cstdint>
#include <map>

#include "net/packet.h"
#include "obs/context.h"
#include "sim/scheduler.h"
#include "transport/udp_flow.h"
#include "util/stats.h"

namespace wgtt::apps {

struct ConferenceConfig {
  std::uint32_t flow_id = 0;
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double frame_rate = 30.0;
  double nominal_bitrate_bps = 1.5e6;  // 720p realtime video
  std::size_t fragment_bytes = 1200;
  bool adaptive = false;          // Hangouts-like resolution scaling
  double min_scale = 0.15;        // floor of adaptive frame shrinking
  Time adaptation_period = Time::sec(1);
};

class ConferenceApp {
 public:
  ConferenceApp(sim::Scheduler& sched, transport::IpIdAllocator& ip_ids,
                ConferenceConfig cfg);

  /// Network egress for fragments (wired by the harness).
  std::function<void(net::PacketPtr)> transmit;

  void start();
  void stop() { running_ = false; }

  /// Network ingress at the receiver.
  void on_packet(const net::PacketPtr& pkt);

  std::uint32_t flow_id() const { return cfg_.flow_id; }

  /// One sample per elapsed second: frames fully rendered in that second.
  const SampleSet& fps_samples() const { return fps_samples_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_rendered() const { return frames_rendered_; }
  double current_scale() const { return scale_; }

 private:
  void send_frame();
  void sample_fps();
  void adapt();

  sim::Scheduler& sched_;
  transport::IpIdAllocator& ip_ids_;
  ConferenceConfig cfg_;
  obs::Context obs_ = obs::Context::current();
  bool running_ = false;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_rendered_ = 0;
  double scale_ = 1.0;

  struct FrameProgress {
    std::size_t fragments_expected = 0;
    std::size_t fragments_received = 0;
  };
  std::map<std::uint64_t, FrameProgress> pending_;  // frame id -> progress

  // fps sampling
  std::uint64_t rendered_this_second_ = 0;
  SampleSet fps_samples_;

  // adaptation feedback
  std::uint64_t frames_sent_this_period_ = 0;
  std::uint64_t frames_rendered_this_period_ = 0;
};

}  // namespace wgtt::apps
