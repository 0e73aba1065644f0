// serve_client: one-shot CLI client for hetpipe_serve. Sends a single
// request, prints the response JSON on stdout, and exits 0 iff the server
// answered ok=true — so shell scripts and the CI smoke test can assert on the
// exit code alone.
//
// Flags: --host=ADDR         server address (default 127.0.0.1)
//        --port=N            server port (required)
//        --op=NAME           plan | max_nm | stats | shutdown (default plan)
//        --id=TAG            opaque tag echoed into the response
//        --nodes=CODES       paper node codes for the cluster (default VRGQ)
//        --spec-file=PATH    hw::ClusterSpec text file (overrides --nodes)
//        --model=NAME        resnet152 | vgg19 | bert-large (default resnet152)
//        --selector=SEL      virtual-worker GPU selector (required for
//                            plan/max_nm), e.g. VVQQ or "A100*2,T4"
//        --nm=N --nm-cap=N --batch-size=N --no-search-orders
//        --strategy=NAME     partitioner search tier: auto | exact | beam |
//                            hierarchical (default auto; the response echoes
//                            the resolved tier)
//        --beam-width=N --rack-order-limit=N
//                            search-tier knobs (defaults 8 / 720)
//
// Exit codes: 0 ok=true, 1 server answered ok=false, 2 bad usage,
// 3 connection/protocol failure.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "runner/cli.h"
#include "serve/client.h"
#include "serve/protocol.h"

int main(int argc, char** argv) {
  using namespace hetpipe;

  std::string host = "127.0.0.1";
  int port = 0;
  serve::PlanRequest request;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int parsed = 0;
    if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(7), &parsed) || parsed < 1 || parsed > 65535) {
        std::fprintf(stderr, "error: --port needs an integer in [1, 65535]\n");
        return 2;
      }
      port = parsed;
    } else if (arg.rfind("--op=", 0) == 0) {
      request.op = arg.substr(5);
    } else if (arg.rfind("--id=", 0) == 0) {
      request.id = arg.substr(5);
    } else if (arg.rfind("--nodes=", 0) == 0) {
      request.cluster_nodes = arg.substr(8);
    } else if (arg.rfind("--spec-file=", 0) == 0) {
      std::ifstream in(arg.substr(12));
      if (!in) {
        std::fprintf(stderr, "error: cannot read --spec-file %s\n", arg.c_str() + 12);
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      request.cluster_spec = text.str();
    } else if (arg.rfind("--model=", 0) == 0) {
      request.model = arg.substr(8);
    } else if (arg.rfind("--selector=", 0) == 0) {
      request.selector = arg.substr(11);
    } else if (arg.rfind("--nm=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(5), &parsed) || parsed < 1) {
        std::fprintf(stderr, "error: --nm needs a positive integer\n");
        return 2;
      }
      request.nm = parsed;
    } else if (arg.rfind("--nm-cap=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(9), &parsed) || parsed < 1) {
        std::fprintf(stderr, "error: --nm-cap needs a positive integer\n");
        return 2;
      }
      request.nm_cap = parsed;
    } else if (arg.rfind("--batch-size=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(13), &parsed) || parsed < 1) {
        std::fprintf(stderr, "error: --batch-size needs a positive integer\n");
        return 2;
      }
      request.batch_size = parsed;
    } else if (arg == "--no-search-orders") {
      request.search_orders = false;
    } else if (arg.rfind("--strategy=", 0) == 0) {
      // Passed through verbatim: the server owns validation, so a junk
      // strategy exercises its stable bad_request path (and exit code 1).
      request.strategy = arg.substr(11);
    } else if (arg.rfind("--beam-width=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(13), &parsed) || parsed < 1) {
        std::fprintf(stderr, "error: --beam-width needs a positive integer\n");
        return 2;
      }
      request.beam_width = parsed;
    } else if (arg.rfind("--rack-order-limit=", 0) == 0) {
      if (!runner::ParseIntFlag(arg.substr(19), &parsed) || parsed < 1) {
        std::fprintf(stderr, "error: --rack-order-limit needs a positive integer\n");
        return 2;
      }
      request.rack_order_limit = parsed;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "error: --port is required\n");
    return 2;
  }

  serve::PlanClient client;
  std::string error;
  if (!client.Connect(host, port, &error)) {
    std::fprintf(stderr, "serve_client: %s\n", error.c_str());
    return 3;
  }
  std::string response_json;
  if (!client.CallRaw(request.ToJson(), &response_json, &error)) {
    std::fprintf(stderr, "serve_client: %s\n", error.c_str());
    return 3;
  }
  std::printf("%s\n", response_json.c_str());

  std::map<std::string, serve::JsonValue> response;
  if (!serve::ParseJsonObject(response_json, &response, &error)) {
    std::fprintf(stderr, "serve_client: unparseable response: %s\n", error.c_str());
    return 3;
  }
  auto ok = response.find("ok");
  const bool success = ok != response.end() &&
                       ok->second.type == serve::JsonValue::Type::kBool && ok->second.boolean;
  return success ? 0 : 1;
}
