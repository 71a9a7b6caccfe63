// pb_server: the serving side of the wire workloads, in its own process so
// its peak resident memory is measured alone.
//
// Serves the wire protocol on 127.0.0.1 with the same configuration as
// rtw_svcd's defaults (1 epoll reactor, 2 shard workers, 4096-slot rings,
// shed on full) and the built-in profile acceptors; SubmitQuery sessions
// compile their query in the server as usual.
//
//   pb_server              # prints "listening <port>", serves until stdin
//                          # reaches EOF, then drains and prints one JSON
//                          # line of transport and service counters
//
// Stopping on stdin EOF instead of a signal means the server cannot
// outlive the load generator that spawned it: if the generator dies, the
// pipe closes and the server drains and exits.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "rtw/svc/net/tcp_server.hpp"
#include "rtw/svc/profiles.hpp"
#include "rtw/svc/server.hpp"

namespace {

/// Gives every serving thread (shard workers, then the reactor, in
/// creation order) its own CPU of the process's set, round robin.  Left
/// to the scheduler, which threads share a CPU changes from run to run,
/// and verdict latency with it.
void pin_threads() {
  const std::vector<int> cpus = pb::allowed_cpus();
  const std::vector<pid_t> tids = pb::task_ids();
  for (std::size_t i = 1; i < tids.size(); ++i)
    pb::pin(tids[i], {cpus[(i - 1) % cpus.size()]});
}

}  // namespace

int main() {
  std::signal(SIGPIPE, SIG_IGN);

  rtw::svc::ServerConfig config;
  config.shard.count = 2;
  config.ingress.ring_capacity = 4096;
  config.net.port = 0;

  rtw::svc::Server server(config, rtw::svc::profile_factory());
  rtw::svc::net::TcpServer transport(server);
  if (!transport.start()) {
    std::cerr << "pb_server: " << transport.error() << "\n";
    return 1;
  }
  pin_threads();
  std::cout << "listening " << transport.port() << std::endl;

  char buffer[256];
  while (::read(STDIN_FILENO, buffer, sizeof(buffer)) > 0) {
  }
  transport.stop();

  const auto net = transport.stats();
  const auto svc = server.manager().stats();
  std::printf(
      "{\"read_bytes\":%llu,\"written_bytes\":%llu,\"read_pauses\":%llu,"
      "\"frame_errors\":%llu,\"accepted\":%llu,\"ingested\":%llu,"
      "\"shed\":%llu,\"query_compiled\":%llu,\"query_rejected\":%llu,"
      "\"peak_rss_kib\":%llu}\n",
      static_cast<unsigned long long>(net.read_bytes),
      static_cast<unsigned long long>(net.written_bytes),
      static_cast<unsigned long long>(net.read_pauses),
      static_cast<unsigned long long>(net.frame_errors),
      static_cast<unsigned long long>(net.accepted),
      static_cast<unsigned long long>(svc.ingested),
      static_cast<unsigned long long>(svc.shed),
      static_cast<unsigned long long>(svc.query_compiled),
      static_cast<unsigned long long>(svc.query_rejected),
      static_cast<unsigned long long>(pb::proc_status_kib("VmHWM:")));
  std::fflush(stdout);
  return 0;
}
