// classminer-client — remote front end over a running classminerd. Mirrors
// the local CLI commands; the response body printed to stdout is
// byte-identical to what the equivalent `classminer` invocation prints:
//
//   classminer-client [--host H] --port N [--user NAME] [--clearance N]
//                     [--deny ID ...] [--deadline MS] [--retries N]
//                     [--pipeline D] [--repeat N]
//                     <mine|browse|skim|verify|repair|health> [args...]
//
// --repeat N issues the same request N times. With --pipeline D up to D
// requests ride one pipelined session at once (responses reassembled
// from streamed chunks, printed in issue order); without it the repeats go
// out one at a time over the same session.
//
// Every call runs through ResilientClient: a connection that dies mid-call
// (daemon restart, reset, torn frame) is redialed and the call re-offered
// with its original idempotency key, so the server replays or joins the
// original execution instead of running it twice — --retries therefore
// covers dropped connections, not just admission-control kUnavailable.
// Every other failure is final and printed to stderr.

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "server/client.h"
#include "util/retry.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: classminer-client [--host H] --port N [--user NAME] "
      "[--clearance N]\n"
      "                         [--deny ID ...] [--deadline MS] "
      "[--retries N]\n"
      "                         [--pipeline D] [--repeat N]\n"
      "                         <mine|browse|skim|verify|repair|health> "
      "[args...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace classminer;

  server::ResilientClient::Options options;
  options.hello.user = "client";
  options.hello.clearance = 3;
  uint32_t deadline_ms = 0;
  int retries = 3;
  int pipeline = 0;  // 0 = one call at a time; >= 1 = pipelined depth
  int repeat = 1;
  int port = -1;
  std::string command;
  std::vector<std::string> args;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!command.empty()) {
      args.push_back(arg);
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--user" && i + 1 < argc) {
      options.hello.user = argv[++i];
    } else if (arg == "--clearance" && i + 1 < argc) {
      options.hello.clearance = std::atoi(argv[++i]);
    } else if (arg == "--deny" && i + 1 < argc) {
      options.hello.denied_nodes.push_back(std::atoi(argv[++i]));
    } else if (arg == "--deadline" && i + 1 < argc) {
      deadline_ms = static_cast<uint32_t>(std::atol(argv[++i]));
    } else if (arg == "--retries" && i + 1 < argc) {
      retries = std::atoi(argv[++i]);
    } else if (arg == "--pipeline" && i + 1 < argc) {
      pipeline = std::atoi(argv[++i]);
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (!arg.empty() && arg[0] != '-') {
      command = arg;
    } else {
      return Usage();
    }
  }
  if (port < 0 || command.empty()) return Usage();
  options.port = port;
  util::StatusOr<server::RequestKind> kind =
      server::ParseRequestKind(command);
  if (!kind.ok() || *kind == server::RequestKind::kHello) return Usage();

  // Admission rejections, capacity refusals, and dropped connections are
  // all kUnavailable — the transient code ResilientClient re-offers with
  // exponential backoff, reconnecting when the transport itself failed.
  options.retry.max_attempts = retries < 1 ? 1 : retries;
  options.retry.initial_backoff_ms = 25.0;
  options.retry.max_backoff_ms = 1000.0;

  if (repeat < 1) repeat = 1;
  server::ResilientClient client(std::move(options));
  const auto make_request = [&] {
    server::Request request;
    request.kind = *kind;
    request.deadline_ms = deadline_ms;
    request.args = args;
    return request;
  };
  const auto call = [&] { return client.Call(make_request()); };

  // Settle responses in issue order whatever order they finish in. Dirty
  // verify/repair outcomes still carry their report; print it before the
  // failing status decides the exit code.
  std::string report;
  util::Status status = util::Status::Ok();
  const auto settle = [&](util::StatusOr<server::Response> response) {
    if (!response.ok()) return response.status();
    report += response->body;
    return response->ToStatus();
  };

  if (pipeline >= 1) {
    // Depth-D pipelining: D concurrent calls share the one resilient
    // session; each call resumes independently if the transport drops.
    std::deque<std::future<util::StatusOr<server::Response>>> window;
    for (int n = 0; n < repeat && status.ok(); ++n) {
      if (static_cast<int>(window.size()) >= pipeline) {
        status = settle(std::move(window.front()).get());
        window.pop_front();
      }
      if (status.ok()) {
        window.push_back(std::async(std::launch::async, call));
      }
    }
    while (!window.empty()) {
      const util::Status drained = settle(std::move(window.front()).get());
      window.pop_front();
      if (status.ok()) status = drained;
    }
  } else {
    for (int n = 0; n < repeat && status.ok(); ++n) {
      status = settle(call());
    }
  }

  if (!report.empty()) std::printf("%s", report.c_str());
  if (!status.ok()) {
    std::fprintf(stderr, "classminer-client: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
