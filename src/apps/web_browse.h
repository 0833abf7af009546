// Web browsing case study (paper §5.4, Table 5).
//
// Loads the paper's 2.1 MB eBay homepage from a local server: an initial
// HTML document followed by embedded objects fetched over a small pool of
// parallel persistent connections (HTTP/1.1 style).  Each fetch costs an
// uplink request plus the object transfer; the page-load time is measured
// from start() until the last object completes.  A load that has not
// finished by the experiment deadline reports "infinity" — exactly how the
// paper renders the 15/20 mph baseline rows.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "obs/context.h"
#include "transport/tcp_connection.h"

namespace wgtt::apps {

struct WebBrowseConfig {
  std::size_t page_bytes = 2'100'000;  // 2.1 MB (paper's eBay homepage)
  std::size_t num_objects = 24;
  std::size_t parallel_connections = 6;
  std::size_t request_bytes = 420;  // GET + headers
  /// A request with no response bytes is retransmitted after this long
  /// (doubling each attempt) — the browser/TCP-SYN retry behaviour that
  /// keeps a fetch alive across a coverage gap.
  Time request_timeout = Time::sec(1);
  std::uint32_t first_flow_id = 0;
  net::NodeId server = 0;
  net::NodeId client = 0;
};

/// Marker payload on uplink request packets.
struct WebRequestMsg {
  std::size_t object_index = 0;
  std::uint32_t flow_id = 0;
};

class WebBrowseApp {
 public:
  WebBrowseApp(sim::Scheduler& sched, transport::IpIdAllocator& ip_ids,
               transport::TcpConfig tcp_cfg, WebBrowseConfig cfg);

  /// Uplink egress for HTTP requests (wired by the harness).
  std::function<void(net::PacketPtr)> transmit_request;
  /// Fired when the page completes.
  std::function<void(Time load_time)> on_page_loaded;

  void start();

  /// Server side: a request arrived — start streaming the object.
  void on_request(const WebRequestMsg& req);

  std::size_t connections() const { return conns_.size(); }
  transport::TcpConnection& connection(std::size_t i) { return *conns_[i]; }

  bool loaded() const { return loaded_; }
  /// Load time, or nullopt if the page never finished (the paper's inf).
  std::optional<Time> load_time() const {
    if (!loaded_) return std::nullopt;
    return load_time_;
  }
  std::size_t objects_completed() const { return objects_completed_; }

 private:
  void issue_next_request(std::size_t conn_index);
  void send_request(std::size_t conn_index, std::size_t object,
                    Time timeout);
  void on_object_bytes(std::size_t conn_index, std::size_t bytes);

  sim::Scheduler& sched_;
  transport::IpIdAllocator& ip_ids_;
  WebBrowseConfig cfg_;
  obs::Context obs_ = obs::Context::current();
  std::vector<std::unique_ptr<transport::TcpConnection>> conns_;
  std::vector<std::size_t> conn_outstanding_bytes_;  // remaining in cur object
  std::vector<bool> conn_got_bytes_;  // response started (stop retrying)
  std::vector<bool> served_;          // server side: object already sent
  std::size_t object_bytes_ = 0;       // size of each object
  std::size_t next_object_ = 0;        // next object index to request
  std::size_t objects_completed_ = 0;
  Time started_;
  Time load_time_ = Time::zero();
  bool loaded_ = false;
  bool started_flag_ = false;
};

}  // namespace wgtt::apps
