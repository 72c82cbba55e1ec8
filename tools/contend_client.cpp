// contend_client — command-line client for contend_served.
//
// Usage:
//   contend_client <endpoint> slowdown
//   contend_client <endpoint> stats
//   contend_client <endpoint> health
//   contend_client <endpoint> metrics [--check]
//   contend_client <endpoint> arrive <commFraction> <messageWords>
//   contend_client <endpoint> depart <applicationId>
//   contend_client <endpoint> load <file.workload>     # ARRIVE every competitor
//   contend_client <endpoint> predict <file.workload> [--batch]
//   contend_client <endpoint> calibrate
//   contend_client <endpoint> calibrate observe <family> <contenders> <words> <value>
//   contend_client <endpoint> calibrate apply
//   contend_client <endpoint> drift
//   contend_client <endpoint> repl status [--check]
//   contend_client <endpoint> repl promote
//   contend_client <endpoint> raw '<request line>'
//
// `load` + `predict` together reproduce what `contend_predict` computes
// offline, but against the *live* mix held by the daemon, which other
// clients may be mutating concurrently.
//
// Exit codes (stable, for scripts): 0 on success, 1 when the server
// answered `ERR`, 2 on transport failure (cannot connect, connection died)
// or a usage error.
#include <cstdlib>
#include <iostream>
#include <string>

#include "serve/client.hpp"
#include "serve/prometheus.hpp"
#include "tools/workload_file.hpp"
#include "util/table.hpp"

using namespace contend;

namespace {

/// True when the first request in `text` is a well-formed METRICS, which
/// the server answers with a multi-line exposition instead of one reply
/// line. Malformed text goes out as is, for the server to answer `ERR`.
bool isMetricsRequest(const std::string& text) {
  try {
    const auto request = serve::parseRequestText(text);
    return request && request->verb == serve::Verb::kMetrics;
  } catch (const serve::ProtocolError&) {
    return false;
  }
}

[[noreturn]] void usage() {
  std::cerr
      << "usage: contend_client <endpoint> <command> [args]\n"
         "  slowdown                      current slowdown factors\n"
         "  stats                         serving + cache metrics\n"
         "  health                        uptime, epoch, journal lag,\n"
         "                                recovered flag\n"
         "  metrics [--check]             Prometheus text exposition;\n"
         "                                --check lints it instead of\n"
         "                                printing (violations -> stderr)\n"
         "  arrive <fraction> <words>     register one competing app\n"
         "  depart <id>                   deregister an app by id\n"
         "  load <file.workload>          ARRIVE every competitor in the file\n"
         "  predict <file.workload>       PREDICT every task in the file\n"
         "          [--batch]             one PREDICT_BATCH round trip, all\n"
         "                                tasks priced against one snapshot\n"
         "  calibrate                     recalibration staleness report\n"
         "  calibrate observe <family> <contenders> <words> <value>\n"
         "                                feed one model-vs-observed sample\n"
         "                                (family: comm_from_comp |\n"
         "                                comm_from_comm | comp_from_comm |\n"
         "                                link_to | link_from)\n"
         "  calibrate apply               build + atomically swap in the\n"
         "                                recalibrated delay tables\n"
         "  drift                         drift check: ok | drifting <score>\n"
         "  repl status [--check]         replication role, epoch, lag;\n"
         "                                --check exits 0 iff caught up\n"
         "  repl promote                  promote a follower to primary\n"
         "  raw '<request>'               send one raw request line\n"
         "endpoints: unix:/path/to.sock | tcp:[host:]port\n"
         "exit codes: 0 ok, 1 server ERR, 2 transport/usage error\n";
  std::exit(2);
}

int printResponse(const serve::Response& response) {
  if (!response.ok) {
    std::cerr << "ERR [" << (response.code.empty() ? "?" : response.code)
              << "] " << response.error << "\n";
    return 1;
  }
  for (const auto& [key, value] : response.fields) {
    std::cout << key << " = " << value << "\n";
  }
  return 0;
}

int load(serve::Client& client, const std::string& path) {
  const tools::WorkloadFile workload = tools::parseWorkloadFile(path);
  int rc = 0;
  for (const model::CompetingApp& app : workload.competitors) {
    const serve::Response response =
        client.arrive(app.commFraction, app.messageWords);
    if (!response.ok) {
      std::cerr << "ERR [" << response.code << "] " << response.error << "\n";
      rc = 1;
      continue;
    }
    std::cout << "arrived id=" << *response.find("id")
              << " p=" << *response.find("p")
              << " comp=" << response.number("comp")
              << " comm=" << response.number("comm") << "\n";
  }
  return rc;
}

int predict(serve::Client& client, const std::string& path) {
  const tools::WorkloadFile workload = tools::parseWorkloadFile(path);
  if (workload.tasks.empty()) {
    std::cout << "(no tasks in the workload file)\n";
    return 0;
  }
  TextTable table({"task", "front-end (s)", "back-end+comm (s)", "decision",
                   "cache"});
  int rc = 0;
  for (const tools::TaskSpec& task : workload.tasks) {
    const serve::Response response = client.predict(task);
    if (!response.ok) {
      std::cerr << "task " << task.name << ": ERR [" << response.code << "] "
                << response.error << "\n";
      rc = 1;
      continue;
    }
    table.addRow({task.name, TextTable::num(response.number("front"), 3),
                  TextTable::num(response.number("remote"), 3),
                  *response.find("decision"), *response.find("cache")});
  }
  printTable("live contention-adjusted placement", table);
  return rc;
}

int predictBatch(serve::Client& client, const std::string& path) {
  const tools::WorkloadFile workload = tools::parseWorkloadFile(path);
  if (workload.tasks.empty()) {
    std::cout << "(no tasks in the workload file)\n";
    return 0;
  }
  const serve::Response response = client.predictBatch(workload.tasks);
  if (!response.ok) {
    std::cerr << "ERR [" << response.code << "] " << response.error << "\n";
    return 1;
  }
  TextTable table({"task", "front-end (s)", "back-end+comm (s)", "decision",
                   "cache"});
  for (std::size_t i = 0; i < workload.tasks.size(); ++i) {
    const std::string suffix = '.' + std::to_string(i);
    table.addRow({*response.find("name" + suffix),
                  TextTable::num(response.number("front" + suffix), 3),
                  TextTable::num(response.number("remote" + suffix), 3),
                  *response.find("decision" + suffix),
                  *response.find("cache" + suffix)});
  }
  printTable("live contention-adjusted placement (epoch " +
                 *response.find("epoch") + ", one snapshot)",
             table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  try {
    serve::Client client{std::string(argv[1])};
    const std::string command = argv[2];
    if (command == "slowdown" && argc == 3) {
      return printResponse(client.slowdown());
    }
    if (command == "stats" && argc == 3) {
      return printResponse(client.stats());
    }
    if (command == "health" && argc == 3) {
      return printResponse(client.health());
    }
    if (command == "metrics" && argc == 3) {
      std::cout << client.metricsText();
      return 0;
    }
    if (command == "metrics" && argc == 4 &&
        std::string(argv[3]) == "--check") {
      const std::vector<std::string> violations =
          serve::lintPrometheusText(client.metricsText());
      for (const std::string& violation : violations) {
        std::cerr << violation << "\n";
      }
      return violations.empty() ? 0 : 1;
    }
    if (command == "arrive" && argc == 5) {
      return printResponse(
          client.arrive(std::stod(argv[3]), std::stoll(argv[4])));
    }
    if (command == "depart" && argc == 4) {
      return printResponse(client.depart(std::stoull(argv[3])));
    }
    if (command == "load" && argc == 4) {
      return load(client, argv[3]);
    }
    if (command == "predict" && argc == 4) {
      return predict(client, argv[3]);
    }
    if (command == "predict" && argc == 5 &&
        std::string(argv[4]) == "--batch") {
      return predictBatch(client, argv[3]);
    }
    if (command == "calibrate" && argc == 3) {
      return printResponse(client.calibrateReport());
    }
    if (command == "calibrate" && argc == 4 &&
        std::string(argv[3]) == "apply") {
      return printResponse(client.calibrateApply());
    }
    if (command == "calibrate" && argc == 8 &&
        std::string(argv[3]) == "observe") {
      const auto family = serve::observationFamilyFromName(argv[4]);
      if (!family) {
        std::cerr << "error: unknown observation family '" << argv[4]
                  << "'\n";
        return 2;
      }
      serve::CalibrationObservation observation;
      observation.family = *family;
      observation.contenders = std::stoi(argv[5]);
      observation.words = std::stoll(argv[6]);
      observation.value = std::stod(argv[7]);
      return printResponse(client.calibrateObserve(observation));
    }
    if (command == "drift" && argc == 3) {
      return printResponse(client.drift());
    }
    if (command == "repl" && argc == 4 && std::string(argv[3]) == "status") {
      return printResponse(client.replStatus());
    }
    if (command == "repl" && argc == 5 && std::string(argv[3]) == "status" &&
        std::string(argv[4]) == "--check") {
      const serve::Response response = client.replStatus();
      const int rc = printResponse(response);
      if (rc != 0) return rc;
      const std::string* caughtUp = response.find("caught_up");
      return (caughtUp != nullptr && *caughtUp == "1") ? 0 : 1;
    }
    if (command == "repl" && argc == 4 && std::string(argv[3]) == "promote") {
      return printResponse(client.replPromote());
    }
    if (command == "raw" && argc == 4) {
      std::string text = argv[3];
      if (text.empty() || text.back() != '\n') text += '\n';
      if (isMetricsRequest(text)) {
        std::cout << client.metricsText();
        return 0;
      }
      return printResponse(client.raw(text));
    }
    usage();
  } catch (const serve::ProtocolError& error) {
    // The server delivered bytes we could not parse — its fault, but the
    // conversation did happen; report it like a server-side failure.
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  } catch (const std::exception& error) {
    // Transport failures (serve::TransportError and friends): nothing was
    // exchanged, distinguishable from a server ERR for scripts.
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
