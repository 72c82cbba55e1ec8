// The serving request path outside the model: splitting a line into tokens,
// parsing a PREDICT and a 16-task PREDICT_BATCH, and encoding their OK
// replies. Task shapes follow perfbench's generator (front/back costs, one
// data set each way, I/O on about a third of the tasks), so the numbers line
// up with the parse and encode spans of a traced serve_churn run.
//
// google-benchmark microbenchmarks; each parse reuses one Request and each
// encode one output buffer, as a serving connection does.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "tools/workload_file.hpp"
#include "util/tokens.hpp"

namespace {

using contend::serve::ReplyEncoder;
using contend::serve::Request;
using contend::serve::Verb;
using contend::tools::TaskSpec;

double uniform(std::mt19937_64& rng, double low, double high) {
  return std::uniform_real_distribution<double>(low, high)(rng);
}

std::int64_t below(std::mt19937_64& rng, std::int64_t bound) {
  return std::uniform_int_distribution<std::int64_t>(0, bound - 1)(rng);
}

TaskSpec randomTask(std::mt19937_64& rng, std::string name) {
  TaskSpec task;
  task.name = std::move(name);
  task.frontEndSec = uniform(rng, 0.5, 20.0);
  task.backEndSec = uniform(rng, 0.1, 5.0);
  if (uniform(rng, 0.0, 1.0) < 0.3) {
    task.ioFraction = uniform(rng, 0.05, 0.4);
    task.ioOps = 1 + below(rng, 400);
  }
  for (auto* sets : {&task.toBackend, &task.fromBackend}) {
    sets->push_back({1 + below(rng, 1000),
                     64 + static_cast<contend::Words>(below(rng, 4033))});
  }
  return task;
}

std::string predictText() {
  std::mt19937_64 rng(1);
  Request request;
  request.verb = Verb::kPredict;
  request.task = randomTask(rng, "hot");
  return contend::serve::formatRequest(request);
}

std::string batchText(int tasks) {
  std::mt19937_64 rng(2);
  Request request;
  request.verb = Verb::kPredictBatch;
  for (int i = 0; i < tasks; ++i) {
    request.batch.push_back(randomTask(rng, "t" + std::to_string(i)));
  }
  return contend::serve::formatRequest(request);
}

void BM_TokenizeLine(benchmark::State& state) {
  std::mt19937_64 rng(4);
  const std::string line =
      "to_backend " + std::to_string(1 + below(rng, 1000)) + " x " +
      std::to_string(64 + below(rng, 4033)) + "\t# payload\r";
  for (auto _ : state) {
    contend::util::TokenCursor cursor(contend::util::stripLineComment(line));
    int tokens = 0;
    while (cursor.next()) ++tokens;
    benchmark::DoNotOptimize(tokens);
  }
}
BENCHMARK(BM_TokenizeLine);

void BM_ParsePredict(benchmark::State& state) {
  const std::string text = predictText();
  Request request;
  for (auto _ : state) {
    benchmark::DoNotOptimize(contend::serve::parseRequestText(text, request));
  }
}
BENCHMARK(BM_ParsePredict);

void BM_ParseBatch16(benchmark::State& state) {
  const std::string text = batchText(16);
  Request request;
  for (auto _ : state) {
    benchmark::DoNotOptimize(contend::serve::parseRequestText(text, request));
  }
  state.counters["tasks"] = static_cast<double>(request.batch.size());
}
BENCHMARK(BM_ParseBatch16);

/// The reply fields of one priced task, as the server writes them.
struct Priced {
  std::string name;
  double front;
  double remote;
  bool offload;
  bool hit;
};

std::vector<Priced> pricedTasks(int count) {
  std::mt19937_64 rng(3);
  std::vector<Priced> tasks;
  for (int i = 0; i < count; ++i) {
    tasks.push_back({"t" + std::to_string(i), uniform(rng, 1.0, 60.0),
                     uniform(rng, 1.0, 900.0), uniform(rng, 0.0, 1.0) < 0.5,
                     false});
  }
  return tasks;
}

void BM_EncodePredictReply(benchmark::State& state) {
  const Priced task = pricedTasks(1).front();
  std::string out;
  for (auto _ : state) {
    out.clear();
    ReplyEncoder reply(out);
    reply.add("verb", "PREDICT");
    reply.add("name", task.name);
    reply.add("epoch", std::uint64_t{123457});
    reply.add("front", task.front);
    reply.add("remote", task.remote);
    reply.add("decision", task.offload ? "back-end" : "front-end");
    reply.add("cache", task.hit ? "hit" : "miss");
    reply.finish();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EncodePredictReply);

void BM_EncodeBatch16Reply(benchmark::State& state) {
  const std::vector<Priced> tasks = pricedTasks(16);
  std::string out;
  for (auto _ : state) {
    out.clear();
    ReplyEncoder reply(out);
    reply.add("verb", "PREDICT_BATCH");
    reply.add("count", static_cast<std::uint64_t>(tasks.size()));
    reply.add("epoch", std::uint64_t{123457});
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      reply.add("name", i, tasks[i].name);
      reply.add("front", i, tasks[i].front);
      reply.add("remote", i, tasks[i].remote);
      reply.add("decision", i, tasks[i].offload ? "back-end" : "front-end");
      reply.add("cache", i, tasks[i].hit ? "hit" : "miss");
    }
    reply.finish();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_EncodeBatch16Reply);

}  // namespace

BENCHMARK_MAIN();
