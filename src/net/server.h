#ifndef EDGESHED_NET_SERVER_H_
#define EDGESHED_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"

namespace edgeshed::net {

struct RpcServerOptions {
  /// TCP port; 0 picks an ephemeral port (read back via port()).
  int port = 0;
  int backlog = 64;
  /// Bind loopback only by default; clear for remote clients.
  bool loopback_only = true;
  /// Concurrent-connection cap. Connections beyond it receive one
  /// ResourceExhausted error frame and are closed (admission control, not a
  /// silent accept-queue hang).
  size_t max_connections = 64;
  /// Requests concurrently being handled (dispatched or blocking in
  /// Wait). Frames arriving beyond the cap get an immediate
  /// ResourceExhausted response instead of queuing unboundedly.
  size_t max_inflight = 8;
  /// Threads executing RPC handlers. Wait/Shed-with-wait block one of these
  /// for the duration of the job, so size it with max_inflight in mind.
  int dispatch_threads = 4;
  /// Connections with no traffic and no in-flight requests for this long
  /// are closed. Zero disables.
  std::chrono::milliseconds idle_timeout{60000};
  /// How long Stop() waits for in-flight requests to finish and responses
  /// to flush before force-closing.
  std::chrono::milliseconds drain_timeout{5000};
  /// Directory for ShedRequest::output snapshots (the kept subgraph of a
  /// finished job, written as `<output>.esg`). Empty disables the feature:
  /// requests carrying an output name are rejected with InvalidArgument.
  /// Output names are validated as single path components
  /// (service::IsSafeDatasetName), never interpreted as paths.
  std::string output_dir;
  /// Load-adaptive degradation (DESIGN.md §13). When set, requests past
  /// `max_inflight` are *admitted* with a pressure hint (the scheduler may
  /// answer with a cheaper tier or a cached coarser-p result, recorded in
  /// the response) instead of instantly rejected; the hard rejection
  /// boundary moves to `max_pending`. The scheduler's own DegradePolicy
  /// must also be enabled for tiering to happen.
  bool degrade_enabled = false;
  /// Hard admission ceiling when degrading; 0 = 4 * max_inflight. Beyond
  /// it requests are rejected ResourceExhausted exactly as before.
  size_t max_pending = 0;
};

/// Binary RPC server in front of the shedding service (DESIGN.md §10).
///
/// One event-loop thread multiplexes every connection with poll(): it
/// accepts, reads, frames (net/wire.h), and writes, all non-blocking with
/// per-connection read/write buffers. Complete request frames are handed to
/// a small pool of dispatch threads that run the actual handlers against the
/// JobScheduler/GraphStore — Submit, Wait (which blocks for the job), Cancel,
/// GetStatus, ListDatasets — and queue the encoded response back to the
/// event loop through a pipe-based wakeup. Ping never leaves the loop
/// thread.
///
/// Overload behaves deterministically instead of degrading into hangs:
///  * more than `max_connections` concurrent sockets → the extra connection
///    gets a ResourceExhausted error frame and is closed;
///  * more than `max_inflight` requests being handled → the request is
///    answered ResourceExhausted immediately (`net.rejected_overload`);
///  * the JobScheduler's own queue bound still applies behind that, and its
///    ResourceExhausted travels back losslessly over the wire.
///
/// Malformed input never crashes the server: framing errors (bad magic,
/// bad version, oversized length, checksum mismatch) are counted
/// (`net.malformed_frames`), answered with one kErrorResponse frame, and the
/// connection is closed since stream sync is lost. Well-framed but
/// undecodable payloads get an InvalidArgument response envelope and the
/// connection lives on.
///
/// Stop() (also run by the destructor) stops accepting, lets in-flight
/// requests finish and responses flush for up to `drain_timeout`, then
/// closes everything and joins both thread groups. `store` and `scheduler`
/// must outlive the server.
///
/// Metrics (`metrics` may be null): counters `net.requests_total`,
/// `net.bytes_in`, `net.bytes_out`, `net.rejected_overload`,
/// `net.malformed_frames`, `net.accepted`, `net.closed`; gauges
/// `net.connections`, `net.inflight`; latency `net.rpc_seconds`. With a
/// tracer, each dispatched RPC runs under an `rpc.<Type>` span, so the
/// scheduler's job trace nests inside the RPC that submitted it.
class RpcServer {
 public:
  RpcServer(service::GraphStore* store, service::JobScheduler* scheduler,
            obs::MetricsRegistry* metrics = nullptr,
            RpcServerOptions options = {}, obs::Tracer* tracer = nullptr);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens, and spawns the event-loop and dispatch threads.
  /// IOError if the port is unavailable; FailedPrecondition if already
  /// started.
  Status Start();

  /// Graceful drain + shutdown. Idempotent.
  void Stop();

  /// Bound port after a successful Start (resolves port 0).
  int port() const { return port_; }

 private:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    size_t out_off = 0;
    /// Requests from this connection currently in dispatch; a connection
    /// with in-flight work is exempt from the idle timeout.
    int inflight = 0;
    /// Close once outbuf drains (set after framing errors and during stop).
    bool closing = false;
    std::chrono::steady_clock::time_point last_activity;
  };

  struct Task {
    uint64_t conn_id = 0;
    Frame frame;
    /// Admission-layer load at enqueue time (inflight / max_inflight);
    /// forwarded to the scheduler as JobSpec::pressure for Shed requests.
    double pressure = 0.0;
  };

  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;  // encoded response frame
  };

  void EventLoop();
  void DispatchLoop();

  // --- event-loop-thread only ---
  void AcceptNew(std::chrono::steady_clock::time_point now);
  void ReadFromConnection(Connection& conn,
                          std::chrono::steady_clock::time_point now);
  void HandleDecodedFrame(Connection& conn, Frame frame);
  void FlushConnection(Connection& conn);
  void CloseConnection(uint64_t conn_id);
  void ApplyCompletions();
  void EnqueueResponse(Connection& conn, MessageType type,
                       const StatusOr<std::string>& body);
  void PublishConnGauges();

  // --- dispatch-thread only ---
  /// Routes one request and frames its reply; the handlers below return
  /// only the OK response body, HandleRequest adds the status envelope.
  std::string HandleRequest(const Frame& frame, double pressure);
  StatusOr<std::string> HandleShed(std::string_view payload, double pressure);
  StatusOr<std::string> HandleWait(std::string_view payload);
  StatusOr<std::string> HandleGetStatus(std::string_view payload);
  StatusOr<std::string> HandleCancel(std::string_view payload);
  StatusOr<std::string> HandleListDatasets(std::string_view payload);
  StatusOr<std::string> HandleApplyMutations(std::string_view payload);
  /// Blocks on the scheduler and renders the finished job as a summary.
  StatusOr<ResultSummary> WaitForResult(uint64_t job_id);

  struct Instruments {
    obs::Counter* requests_total = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* rejected_overload = nullptr;
    obs::Counter* degraded_admitted = nullptr;
    obs::Counter* degraded_applied = nullptr;
    obs::Counter* malformed_frames = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* closed = nullptr;
    obs::Gauge* connections = nullptr;
    obs::Gauge* inflight = nullptr;
    obs::LatencySeries* rpc_seconds = nullptr;
  };

  service::GraphStore* const store_;
  service::JobScheduler* const scheduler_;
  obs::MetricsRegistry* const metrics_;  // may be null
  obs::Tracer* const tracer_;            // may be null
  Instruments instruments_;
  const RpcServerOptions options_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};

  /// Event-loop-owned: connections, ids, and the in-flight counter. No lock
  /// — only EventLoop() touches them.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;
  size_t inflight_ = 0;

  /// Dispatch handoff (guarded by queue_mu_).
  std::mutex queue_mu_;
  std::condition_variable task_available_;
  std::deque<Task> tasks_;
  std::deque<Completion> completions_;
  bool dispatch_shutdown_ = false;

  /// Serializes Stop() callers.
  std::mutex stop_mu_;
  std::thread loop_thread_;
  std::vector<std::thread> dispatch_threads_;
};

}  // namespace edgeshed::net

#endif  // EDGESHED_NET_SERVER_H_
