// larbench — end-to-end benchmark of larserved.
//
//   larbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --server <larserved> --expect <z3_expect.json> --log <file>
//   larbench regen --expect <z3_expect.json> [--threads <n>]
//
// `run` goes through five legs. Each spawns larserved (default flags,
// ephemeral port), measures set-up (spawn until the warm-up pass is
// answered) and runs a fifth of the closed-loop timed phase on it. Every
// answer is checked with the oracle outside the timed phase, and with
// --trace 1 the request sequence is replayed in-process for the per-layer
// split. The last line of stdout is the result
// object; the exit code is non-zero when any operation failed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.hpp"
#include "client.hpp"
#include "json/parse.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "server_proc.hpp"
#include "workloads.hpp"

using namespace larbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Legs per run. Each leg spawns a server, takes one set-up sample (spawn
/// until the warm-up pass is answered) and runs 1/kLegs of the timed phase
/// on it, so set-up and the timed phase are both sampled at five points
/// spread over the run rather than in one burst: the machine's speed drifts
/// within seconds on a shared host.
constexpr int kLegs = 5;

/// Rounds the traced replay covers after the warm-up pass.
std::size_t replayRounds(const std::string& workload) {
    if (workload == "repeat-queries") return 8;   // 200 requests
    if (workload == "cold-variations") return 20; // 200 requests
    return 40;                                    // 280 requests
}

struct Args {
    std::map<std::string, std::string> kv;
    [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const {
        const auto it = kv.find(key);
        return it == kv.end() ? fallback : it->second;
    }
};

Args parseArgs(int argc, char** argv) {
    Args a;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0) throw std::invalid_argument(argv[i]);
        a.kv[argv[i] + 2] = argv[i + 1];
    }
    return a;
}

/// One answered request, kept for the oracle.
struct Exchange {
    const Op* op;
    int status;
    std::string body;
};

/// Runs one script on `conn`, substituting the session id a create returns.
/// Timed requests append their latency to `timed` and `byKind`.
void runScript(Connection& conn, const Script& script, std::vector<Exchange>& out,
               std::vector<double>* timed, std::map<std::string, std::vector<double>>* byKind) {
    std::string session;
    for (const Op& op : script) {
        HttpResult r;
        switch (op.type) {
            case OpType::Query: r = conn.request("POST", "/v1/query", op.body); break;
            case OpType::SessionCreate: r = conn.request("POST", "/v1/session", op.body); break;
            case OpType::SessionAsk:
                r = conn.request("POST", "/v1/session/" + session + "/ask", op.body);
                break;
            case OpType::SessionDelete: r = conn.request("DELETE", "/v1/session/" + session, ""); break;
        }
        if (op.type == OpType::SessionCreate && r.status == 200) {
            try {
                session = lar::json::parse(r.body).at("id").asString();
            } catch (const std::exception&) {
            }
        }
        if (timed != nullptr) {
            timed->push_back(r.ms);
            (*byKind)[op.kind].push_back(r.ms);
        }
        out.push_back({&op, r.status, std::move(r.body)});
    }
}

/// Hands out scripts round by round from `firstRound`; stops only at a
/// round boundary once `seconds` have passed, so every leg attempts whole
/// rounds.
class Dispatcher {
public:
    Dispatcher(const Workload& w, std::size_t firstRound, double seconds)
        : w_(w), round_(firstRound),
          deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds))) {}
    const Script* next() {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (index_ == w_.rounds[round_ % w_.rounds.size()].size()) {
            index_ = 0;
            ++round_;
            if (Clock::now() >= deadline_) stopped_ = true;
        }
        if (stopped_) return nullptr;
        return &w_.rounds[round_ % w_.rounds.size()][index_++];
    }
    /// The first round not handed out.
    [[nodiscard]] std::size_t round() const { return round_; }

private:
    const Workload& w_;
    std::mutex mutex_;
    std::size_t round_, index_ = 0;
    Clock::time_point deadline_;
    bool stopped_ = false;
};

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

int run(const Args& args) {
    const std::string name = args.get("workload");
    const std::uint64_t seed = std::strtoull(args.get("seed", "1").c_str(), nullptr, 10);
    const double seconds = std::atof(args.get("seconds", "10").c_str());
    const bool trace = args.get("trace", "0") == "1";
    const std::string server = args.get("server");
    const std::string log = args.get("log", "larserved.log");

    const lar::kb::KnowledgeBase kb = lar::catalog::buildKnowledgeBase();
    const Workload w = makeWorkload(name, seed, kb, name == "whatif-session" ? 20000 : 4000);
    Oracle oracle(kb, args.get("expect"));
    std::vector<Exchange> exchanges;

    const std::size_t conns = static_cast<std::size_t>(w.connections);
    std::vector<double> setups, rss, latencies;
    std::map<std::string, std::vector<double>> byKind;
    double timedSecs = 0.0, timedCpu = 0.0;
    std::size_t round = 0;
    std::vector<std::string> legLines;
    for (int leg = 0; leg < kLegs; ++leg) {
        // Set-up: spawn → the warm-up pass, spread over the workload's
        // connections, answered.
        const Clock::time_point start = Clock::now();
        ServerProcess proc(server, log);
        std::vector<std::vector<Exchange>> warm(conns);
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < conns; ++c) {
            threads.emplace_back([&, c] {
                Connection conn(proc.port());
                for (std::size_t k = c; k < w.warmup.size(); k += conns)
                    runScript(conn, w.warmup[k], warm[c], nullptr, nullptr);
            });
        }
        for (std::thread& t : threads) t.join();
        setups.push_back(std::chrono::duration<double>(Clock::now() - start).count());
        for (std::vector<Exchange>& v : warm)
            for (Exchange& e : v) exchanges.push_back(std::move(e));

        // Timed: closed loop on `conns` keep-alive connections.
        const double cpuBefore = proc.cpuSeconds();
        const Clock::time_point timedStart = Clock::now();
        Dispatcher dispatcher(w, round, seconds / kLegs);
        std::vector<std::vector<Exchange>> perConn(conns);
        std::vector<std::vector<double>> timedPerConn(conns);
        std::vector<std::map<std::string, std::vector<double>>> kindsPerConn(conns);
        threads.clear();
        for (std::size_t c = 0; c < conns; ++c) {
            threads.emplace_back([&, c] {
                Connection conn(proc.port());
                for (const Script* s = dispatcher.next(); s != nullptr; s = dispatcher.next())
                    runScript(conn, *s, perConn[c], &timedPerConn[c], &kindsPerConn[c]);
            });
        }
        for (std::thread& t : threads) t.join();
        const double legSecs = std::chrono::duration<double>(Clock::now() - timedStart).count();
        timedSecs += legSecs;
        timedCpu += proc.cpuSeconds() - cpuBefore;
        rss.push_back(proc.peakRssMb());
        proc.stop();

        std::vector<double> legLatencies;
        for (std::size_t c = 0; c < conns; ++c) {
            legLatencies.insert(legLatencies.end(), timedPerConn[c].begin(), timedPerConn[c].end());
            for (auto& [kind, v] : kindsPerConn[c]) byKind[kind].insert(byKind[kind].end(), v.begin(), v.end());
            for (Exchange& e : perConn[c]) exchanges.push_back(std::move(e));
        }
        char line[256];
        std::snprintf(line, sizeof line,
                      "#   leg %d: set-up %.4f s, rounds %zu-%zu, %zu requests in %.2f s, "
                      "p50 %.3f ms, p90 %.3f ms, peak RSS %.1f MiB",
                      leg, setups.back(), round, dispatcher.round() - 1, legLatencies.size(), legSecs,
                      quantile(legLatencies, 0.5), quantile(legLatencies, 0.9), rss.back());
        legLines.emplace_back(line);
        latencies.insert(latencies.end(), legLatencies.begin(), legLatencies.end());
        round = dispatcher.round();
    }

    // Oracle, outside the timed phase.
    std::size_t failed = 0;
    std::map<std::string, int> reasons;
    for (const Exchange& e : exchanges) {
        const std::string bad = oracle.judge(w, *e.op, e.status, e.body);
        if (!bad.empty()) {
            ++failed;
            if (reasons[e.op->kind + ": " + bad]++ == 0)
                std::fprintf(stderr, "FAILED %s: %s\n", e.op->kind.c_str(), bad.c_str());
        }
    }
    if (oracle.liveComputed() > 0)
        std::fprintf(stderr,
                     "note: %zu expectations were not in %s and were computed with Z3; "
                     "regenerate it with: python3 perfbench/run.py --regen-oracle\n",
                     oracle.liveComputed(), args.get("expect").c_str());

    const std::size_t timed = latencies.size();
    std::size_t attempted = exchanges.size();
    const double p50 = quantile(latencies, 0.5);
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> units;
    if (trace) {
        const ReplayResult r = replay(w, kb, replayRounds(name), p50, oracle);
        attempted += r.requests;
        failed += r.failed;
        if (r.failed > 0) reasons["replay"] += static_cast<int>(r.failed);
        for (const auto& [m, unit] : perLayerMetrics()) {
            metrics[m] = r.metrics.at(m);
            units[m] = unit;
        }
        std::printf("# replay: %zu requests, %zu failed", r.requests, r.failed);
        for (const char* extra : {"replay.overhead_ms", "session.create_ms", "session.ask_ms"}) {
            const auto it = r.metrics.find(extra);
            if (it != r.metrics.end()) std::printf(", %s %.4f", extra, it->second);
        }
        std::printf("\n");
    } else {
        const double n = static_cast<double>(timed);
        metrics["latency_p50_ms"] = p50;
        metrics["latency_p90_ms"] = quantile(latencies, 0.9);
        metrics["throughput_qps"] = n / timedSecs;
        metrics["cpu_ms_per_req"] = timedCpu * 1000.0 / n;
        metrics["setup_s"] = quantile(setups, 0.5);
        metrics["server_rss_mb"] = quantile(rss, 0.5);
        units = {{"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"}, {"throughput_qps", "1/s"},
                 {"cpu_ms_per_req", "ms"}, {"setup_s", "s"}, {"server_rss_mb", "MiB"}};
    }

    std::printf("# %s seed %llu: %zu rounds, %zu timed requests in %.2f s (the samples of "
                "both quantiles), %zu warm-up requests, %d legs:\n",
                name.c_str(), static_cast<unsigned long long>(seed), round, timed, timedSecs,
                exchanges.size() - timed, kLegs);
    for (const std::string& l : legLines) std::printf("%s\n", l.c_str());
    for (const auto& [kind, v] : byKind)
        std::printf("#   %-10s n=%-6zu p50 %8.3f ms  p90 %8.3f ms\n", kind.c_str(), v.size(),
                    quantile(v, 0.5), quantile(v, 0.9));
    std::string line = "{\"correct\": " + std::string(reasons.empty() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [m, v] : metrics) {
        line += (first ? "\"" : ", \"") + m + "\": {\"value\": " + number(v) +
                ", \"unit\": \"" + units[m] + "\"}";
        first = false;
    }
    std::printf("%s}}\n", line.c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr, "usage: larbench run|regen --key value ...\n");
        return 2;
    }
    try {
        const Args args = parseArgs(argc, argv);
        const std::string cmd = argv[1];
        if (cmd == "run") return run(args);
        if (cmd == "regen") {
            const lar::kb::KnowledgeBase kb = lar::catalog::buildKnowledgeBase();
            return Oracle::regenerate(kb, workloadNames(), args.get("expect"),
                                      static_cast<unsigned>(std::atoi(args.get("threads", "3").c_str())))
                       ? 0
                       : 1;
        }
        std::fprintf(stderr, "larbench: unknown command '%s'\n", cmd.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "larbench: %s\n", e.what());
        return 2;
    }
}
