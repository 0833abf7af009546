#include "apps/web_browse.h"

namespace wgtt::apps {

WebBrowseApp::WebBrowseApp(sim::Scheduler& sched,
                           transport::IpIdAllocator& ip_ids,
                           transport::TcpConfig tcp_cfg, WebBrowseConfig cfg)
    : sched_(sched), ip_ids_(ip_ids), cfg_(cfg) {
  object_bytes_ = cfg_.page_bytes / cfg_.num_objects;
  conns_.reserve(cfg_.parallel_connections);
  conn_outstanding_bytes_.assign(cfg_.parallel_connections, 0);
  conn_got_bytes_.assign(cfg_.parallel_connections, false);
  for (std::size_t i = 0; i < cfg_.parallel_connections; ++i) {
    auto conn = std::make_unique<transport::TcpConnection>(
        sched, ip_ids, tcp_cfg,
        cfg_.first_flow_id + static_cast<std::uint32_t>(i), cfg_.server,
        cfg_.client);
    conn->on_app_receive = [this, i](std::size_t bytes, Time) {
      on_object_bytes(i, bytes);
    };
    conns_.push_back(std::move(conn));
  }
}

void WebBrowseApp::start() {
  if (started_flag_) return;
  started_flag_ = true;
  started_ = sched_.now();
  for (std::size_t i = 0; i < conns_.size(); ++i) issue_next_request(i);
}

void WebBrowseApp::issue_next_request(std::size_t conn_index) {
  if (next_object_ >= cfg_.num_objects) return;
  const std::size_t object = next_object_++;
  conn_outstanding_bytes_[conn_index] = object_bytes_;
  conn_got_bytes_[conn_index] = false;
  send_request(conn_index, object, cfg_.request_timeout);
}

void WebBrowseApp::send_request(std::size_t conn_index, std::size_t object,
                                Time timeout) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.src = cfg_.client;
  p.dst = cfg_.server;
  p.flow_id = conns_[conn_index]->flow_id();
  p.seq = object;
  p.ip_id = ip_ids_.next(cfg_.client);
  p.size_bytes = cfg_.request_bytes;
  p.created = sched_.now();
  p.payload = WebRequestMsg{object, conns_[conn_index]->flow_id()};
  if (transmit_request) {
    obs_.ledger(p, obs::Ledger::kSent);
    transmit_request(net::make_packet(std::move(p)));
  }

  // Retry with exponential backoff until the response starts flowing.
  sched_.schedule(timeout, [this, conn_index, object, timeout]() {
    if (loaded_ || conn_got_bytes_[conn_index]) return;
    if (conn_outstanding_bytes_[conn_index] == 0) return;  // done already
    send_request(conn_index, object,
                 std::min(timeout * 2.0, Time::sec(8)));
  });
}

void WebBrowseApp::on_request(const WebRequestMsg& req) {
  // The request packet reached the server: its ledger instance terminates
  // here even when the object was already served by an earlier retry.
  obs_.count(obs::Ledger::kDelivered, 1);
  const std::size_t conn_index = req.flow_id - cfg_.first_flow_id;
  if (conn_index >= conns_.size()) return;
  // A retried request may arrive after the original: serve each object once.
  if (req.object_index >= served_.size()) served_.resize(cfg_.num_objects);
  if (served_[req.object_index]) return;
  served_[req.object_index] = true;
  conns_[conn_index]->app_send(object_bytes_);
}

void WebBrowseApp::on_object_bytes(std::size_t conn_index, std::size_t bytes) {
  if (loaded_) return;
  conn_got_bytes_[conn_index] = true;
  auto& remaining = conn_outstanding_bytes_[conn_index];
  remaining = bytes >= remaining ? 0 : remaining - bytes;
  if (remaining > 0) return;
  ++objects_completed_;
  if (objects_completed_ >= cfg_.num_objects) {
    loaded_ = true;
    load_time_ = sched_.now() - started_;
    if (on_page_loaded) on_page_loaded(load_time_);
    return;
  }
  issue_next_request(conn_index);
}

}  // namespace wgtt::apps
