// svc_stream: the serving layer in ~80 lines.
//
// Two clients stream deadline-transaction words at one SessionManager:
// client A proposes the correct sorted output, client B a wrong one.  The
// words travel as length-prefixed wire frames through the Decoder -- the
// same path a socket or replay file would use -- and the manager fans the
// decoded events across its shard workers.  Run it:
//
//   ./svc_stream
//
// Expected output: session 1 accepted (exact), session 2 rejected.

#include <iostream>
#include <memory>
#include <string>

#include "rtw/deadline/acceptor.hpp"
#include "rtw/deadline/online.hpp"
#include "rtw/deadline/word.hpp"
#include "rtw/svc/service.hpp"
#include "rtw/svc/wire.hpp"

using namespace rtw::core;
using rtw::svc::SessionManager;

namespace {

/// Encodes one client's whole life as wire frames: open, the word's
/// symbols in packed feed runs, close.
std::string client_stream(rtw::svc::SessionId id, bool correct_output) {
  rtw::deadline::DeadlineInstance instance;
  instance.input = {Symbol::nat(4), Symbol::nat(1), Symbol::nat(3)};
  instance.proposed_output =
      correct_output
          ? std::vector<Symbol>{Symbol::nat(1), Symbol::nat(3), Symbol::nat(4)}
          : std::vector<Symbol>{Symbol::nat(9)};
  instance.usefulness = rtw::deadline::Usefulness::firm(30, 10);
  instance.min_acceptable = 1;

  // Deadline words are timed omega-words: stream the prefix the default
  // horizon would see and close Truncated, exactly the engine's view.
  constexpr Tick horizon = 200;
  const auto word = rtw::deadline::build_deadline_word(instance);
  std::vector<TimedSymbol> symbols;
  auto cursor = word.cursor();
  while (!cursor.done() && cursor.current().time <= horizon) {
    symbols.push_back(cursor.current());
    cursor.advance();
  }

  std::string stream = rtw::svc::encode_open(id, "sort");
  constexpr std::size_t chunk = 8;  // a few symbols per feed run
  for (std::size_t off = 0; off < symbols.size(); off += chunk)
    stream += rtw::svc::encode_feed_batch(
        id, {symbols.begin() + off,
             symbols.begin() + std::min(symbols.size(), off + chunk)});
  stream += rtw::svc::encode_close(id, StreamEnd::Truncated);
  return stream;
}

}  // namespace

int main() {
  rtw::svc::ShardConfig shard;
  shard.count = 2;
  SessionManager manager(shard, rtw::svc::IngressConfig{});

  // The factory maps a wire profile string to a fresh online acceptor.
  const rtw::svc::AcceptorFactory factory =
      [](rtw::svc::SessionId, std::string_view profile)
      -> std::unique_ptr<OnlineAcceptor> {
    if (profile != "sort") return nullptr;
    return rtw::deadline::make_online_acceptor(
        std::make_shared<rtw::deadline::SortProblem>());
  };

  // One Decoder per connection (frames of different sockets never share a
  // byte stream); deliveries interleave across connections in ragged
  // chunks, as a poll loop would observe them.
  const std::string streams[] = {client_stream(1, /*correct_output=*/true),
                                 client_stream(2, /*correct_output=*/false)};
  rtw::svc::Decoder decoders[2];
  std::size_t offsets[2] = {0, 0};
  for (bool progress = true; progress;) {
    progress = false;
    for (int c = 0; c < 2; ++c) {
      const std::size_t chunk =
          std::min<std::size_t>(17 + 11 * c, streams[c].size() - offsets[c]);
      if (chunk == 0) continue;
      progress = true;
      decoders[c].push(
          std::string_view(streams[c]).substr(offsets[c], chunk));
      offsets[c] += chunk;
      rtw::svc::WireEvent event;
      while (decoders[c].next(event)) manager.apply(event, factory);
      if (!decoders[c].ok()) {
        std::cerr << "wire error: " << decoders[c].error() << "\n";
        return 1;
      }
    }
  }

  manager.shutdown(StreamEnd::Truncated);
  for (const auto& report : manager.collect())
    std::cout << "session " << report.id << ": "
              << to_string(report.verdict)
              << (report.result.exact ? " (exact)" : " (heuristic)")
              << ", fed " << report.fed << " symbols\n";

  const auto stats = manager.stats();
  std::cout << "ingested " << stats.ingested << " symbols across "
            << stats.opened << " sessions on " << manager.shards()
            << " shards\n";
  return 0;
}
