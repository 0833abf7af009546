// Online video streaming case study (paper §5.4, Table 4).
//
// Models VLC playing an HD stream fetched over TCP (the paper streams a
// cached 1280x720 file over FTP): bytes arrive through a TcpConnection into
// a playback buffer; playback starts after a 1,500 ms pre-buffer and drains
// the buffer at the video bitrate.  An empty buffer is a rebuffer event —
// playback stalls until the pre-buffer refills.  The metric is the rebuffer
// ratio: stalled time / transit duration.
#pragma once

#include <cstdint>
#include <vector>

#include "transport/tcp_connection.h"

namespace wgtt::apps {

struct VideoStreamConfig {
  double video_bitrate_bps = 4e6;     // 720p HD
  Time prebuffer = Time::ms(1500);    // paper's VLC setting
  Time playback_tick = Time::ms(40);  // one frame at 25 fps
};

class VideoStreamApp {
 public:
  VideoStreamApp(sim::Scheduler& sched, transport::IpIdAllocator& ip_ids,
                 transport::TcpConfig tcp_cfg, VideoStreamConfig cfg,
                 std::uint32_t flow_id, net::NodeId server,
                 net::NodeId client);

  transport::TcpConnection& connection() { return conn_; }

  void start();

  bool playing() const { return playing_; }
  std::uint32_t rebuffer_events() const { return rebuffer_events_; }
  Time stalled_time() const { return stalled_; }
  Time playing_time() const { return played_; }
  /// Fraction of the observation window spent stalled (Table 4's metric).
  double rebuffer_ratio(Time observation) const {
    if (observation <= Time::zero()) return 0.0;
    return stalled_ / observation;
  }

 private:
  void on_bytes(std::size_t bytes, Time when);
  void tick();

  sim::Scheduler& sched_;
  VideoStreamConfig cfg_;
  transport::TcpConnection conn_;
  std::uint64_t buffer_bytes_ = 0;
  bool started_ = false;
  bool playing_ = false;
  bool began_playback_ = false;
  bool stall_pending_refill_ = false;
  std::uint32_t rebuffer_events_ = 0;
  Time stalled_ = Time::zero();
  Time played_ = Time::zero();
};

}  // namespace wgtt::apps
