// wirepipe_evald — the evaluation daemon.
//
// Boots an svc::EvalServer on a local socket and serves EvalRequest
// batches until a shutdown frame arrives. One process = one SimOracle:
// goldens are cached in memory per daemon.
//
//   wirepipe_evald --socket /tmp/eval.sock --workers 2
#include <iostream>
#include <string>

#include "cli/arg_parser.hpp"
#include "svc/eval_server.hpp"
#include "svc/ports.hpp"

int main(int argc, char** argv) {
  using namespace wp;

  cli::ArgParser parser(
      "wirepipe_evald",
      "Wirepipe evaluation daemon: serves EvalRequest batches over a "
      "local socket until asked to shut down.");
  parser.option("--socket", "PATH", "",
                "endpoint (default: this user's eval port socket)");
  parser.option("--workers", "N", "0",
                "evaluation threads (0 = hardware concurrency)");
  parser.flag("--quiet", "no startup/shutdown banner");
  parser.parse_or_exit(argc, argv);

  svc::EvalServerOptions options;
  options.socket_path = parser.get("--socket");
  options.workers = static_cast<std::size_t>(parser.get_int("--workers"));

  const bool quiet = parser.has("--quiet");
  try {
    svc::EvalServer server(options);
    server.start();
    if (!quiet)
      std::cout << "wirepipe_evald serving on " << server.socket_path()
                << "\n";
    server.wait();
    const svc::EvalServer::Stats stats = server.stats();
    server.stop();
    if (!quiet)
      std::cout << "wirepipe_evald done: " << stats.requests
                << " evaluations over " << stats.connections
                << " connections, " << stats.error_frames
                << " error frames\n";
  } catch (const svc::ProtocolError& e) {
    std::cerr << "wirepipe_evald: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
