#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "json/parse.hpp"
#include "json/write.hpp"
#include "net/http.hpp"
#include "reason/compile.hpp"
#include "reason/problem_io.hpp"
#include "reason/service.hpp"
#include "reason/service_io.hpp"
#include "reason/session.hpp"
#include "reason/trace.hpp"
#include "reason/validate.hpp"
#include "serve/api.hpp"
#include "serve/session_io.hpp"

namespace larbench {

using namespace lar;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

template <typename F>
double timed(F&& f) {
    const Clock::time_point start = Clock::now();
    f();
    return msSince(start);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Per-request samples of each layer; a layer a request never entered
/// gets no sample, so every median is over the requests that entered it.
struct Samples {
    std::map<std::string, std::vector<double>> by;
    void add(const std::string& name, double value) { by[name].push_back(value); }
};

/// Solver figures of one solve, as deltas of the backend's cumulative stats.
void addSolverStats(Samples& s, const sat::SolverStats& now, const sat::SolverStats& before,
                    double solveMs) {
    const double simplifyMs = now.simplifyMs - before.simplifyMs;
    if (now.simplifyRounds > before.simplifyRounds) {
        s.add("simplify_ms", simplifyMs);
        s.add("simplify.rounds", static_cast<double>(now.simplifyRounds - before.simplifyRounds));
        s.add("simplify.eliminated_vars",
              static_cast<double>(now.eliminatedVars - before.eliminatedVars));
    }
    s.add("search_ms", solveMs - simplifyMs);
    s.add("search.solves", static_cast<double>(now.solves - before.solves));
    s.add("search.conflicts", static_cast<double>(now.conflicts - before.conflicts));
    s.add("search.decisions", static_cast<double>(now.decisions - before.decisions));
    s.add("search.propagations", static_cast<double>(now.propagations - before.propagations));
}

std::string wireRequest(const std::string& method, const std::string& path,
                        const std::string& body) {
    std::string wire = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty())
        wire += "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n";
    return wire + "\r\n" + body;
}

/// What the replay and the program's own path must agree on, per request.
struct Outcome {
    std::string verdict; ///< verdictName, or "created" / "closed" for sessions
    std::vector<std::int64_t> costs; ///< optimize: the design's objective costs
    std::size_t designs = 0;
    bool warmStarted = false; ///< session create
    /// Solver counts: per query, or cumulative over a session's asks.
    std::uint64_t solves = 0, conflicts = 0, decisions = 0, propagations = 0;

    void countsFrom(const sat::SolverStats& s) {
        solves = s.solves;
        conflicts = s.conflicts;
        decisions = s.decisions;
        propagations = s.propagations;
    }
    bool operator==(const Outcome&) const = default;

    [[nodiscard]] std::string describe() const {
        std::string out = verdict + " designs=" + std::to_string(designs) + " costs=[";
        for (std::size_t i = 0; i < costs.size(); ++i)
            out += (i == 0 ? "" : ",") + std::to_string(costs[i]);
        return out + "] warm=" + std::to_string(warmStarted) + " solves=" + std::to_string(solves) +
               " conflicts=" + std::to_string(conflicts) + " decisions=" + std::to_string(decisions) +
               " propagations=" + std::to_string(propagations);
    }
};

/// larserved's default Service configuration.
reason::ServiceOptions larservedDefaults() {
    reason::ServiceOptions o;
    o.warmStartCapacity = 32; // larserved --warm-start-cap default
    return o;
}

/// One replayed request: the op, the response body and what it answered.
struct Answer {
    const Op* op;
    std::string body;
    Outcome outcome;
};

struct LiveSession {
    reason::Problem problem;
    std::unique_ptr<reason::SolverSession> session;
    sat::SolverStats last;
};

class Replayer {
public:
    Replayer(const Workload& w, const kb::KnowledgeBase& kb) : w_(w), kb_(kb), service_(larservedDefaults()) {}

    void run(const Script& script) {
        std::string sessionId;
        for (const Op& op : script) {
            if (op.type == OpType::SessionCreate) sessionId = "s-" + std::to_string(++sessions_);
            request(op, sessionId);
        }
    }

    [[nodiscard]] Samples& samples() { return samples_; }
    [[nodiscard]] const std::vector<Answer>& answers() const { return answers_; }
    [[nodiscard]] std::size_t requests() const { return requests_; }
    [[nodiscard]] double hitRatio() const {
        return lookups_ == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(lookups_);
    }

private:
    /// compilationFor through the cache, recording the cache and compile layers.
    std::shared_ptr<const reason::Compilation> compilationFor(const reason::Problem& problem,
                                                              double& attributed) {
        bool hit = false;
        double compileMs = 0.0;
        std::shared_ptr<const reason::Compilation> c;
        attributed += timed([&] { c = service_.compilationFor(problem, hit, compileMs); });
        ++lookups_;
        if (hit) ++hits_;
        else samples_.add("compile_ms", compileMs);
        samples_.add("compile.nodes", static_cast<double>(c->store().size()));
        samples_.add("compile.hard_assertions", static_cast<double>(c->hardAssertions().size()));
        return c;
    }

    void request(const Op& op, const std::string& sessionId) {
        ++requests_;
        std::string method = "POST", path = "/v1/query";
        if (op.type == OpType::SessionCreate) path = "/v1/session";
        if (op.type == OpType::SessionAsk) path = "/v1/session/" + sessionId + "/ask";
        if (op.type == OpType::SessionDelete) method = "DELETE", path = "/v1/session/" + sessionId;
        const std::string wire = wireRequest(method, path, op.body);

        const Clock::time_point start = Clock::now();
        double attributed = 0.0;
        net::HttpParser parser;
        std::size_t used = 0;
        const double parseMs = timed([&] { (void)parser.consume(wire, used); });
        samples_.add("http.parse_ms", parseMs);
        attributed += parseMs;
        const net::HttpRequest& req = parser.request();

        net::HttpResponse response;
        outcome_ = {};
        switch (op.type) {
            case OpType::Query: response = query(req, attributed); break;
            case OpType::SessionCreate: response = create(req, sessionId, attributed); break;
            case OpType::SessionAsk: response = ask(op, req, sessionId, attributed); break;
            case OpType::SessionDelete: {
                attributed += timed([&] {
                    LiveSession& live = live_.at(sessionId);
                    sat::SolverSnapshot snap = live.session->exportSnapshot();
                    if (!snap.empty())
                        service_.storeSnapshot(live.problem, std::make_shared<const sat::SolverSnapshot>(std::move(snap)));
                    live_.erase(sessionId);
                });
                outcome_.verdict = "closed";
                json::Value body;
                body["closed"] = true;
                const double ms = timed([&] { response = serve::apiResponse(200, std::move(body)); });
                samples_.add("serialize_ms", ms);
                attributed += ms;
                break;
            }
        }
        std::string out;
        const double writeMs = timed([&] { net::serializeResponse(response, req.keepAlive, out); });
        samples_.add("http.write_ms", writeMs);
        attributed += writeMs;
        samples_.add("replay.request_ms", msSince(start));
        samples_.add("attributed_ms", attributed);
        answers_.push_back({&op, std::move(response.body), std::move(outcome_)});
    }

    net::HttpResponse query(const net::HttpRequest& req, double& attributed) {
        reason::QueryRequest request;
        const double decodeMs = timed([&] {
            request = reason::queryRequestFromJson(json::parse(req.body), kb_, reason::QueryOptions{}, 0);
        });
        samples_.add("decode_ms", decodeMs);
        attributed += decodeMs;
        const std::shared_ptr<const reason::Compilation> compilation =
            compilationFor(request.problem, attributed);

        // The Service's warm-start path for single-worker CDCL queries.
        reason::QueryOptions effective = request.options;
        effective.warmStart = service_.snapshotFor(request.problem);
        effective.captureSnapshot = true;
        std::optional<reason::SolverSession> session;
        const double encodeMs = timed([&] { session.emplace(compilation, effective); });
        samples_.add("encode_ms", encodeMs);
        attributed += encodeMs;

        reason::QueryResult result;
        result.id = request.id;
        result.kind = request.kind;
        smt::Backend& backend = session->backend();
        std::vector<reason::Design> designs;
        double extractMs = 0.0;
        const auto extract = [&] {
            extractMs += timed([&] { designs.push_back(session->extractDesign()); });
        };
        const Clock::time_point solveStart = Clock::now();
        bool sat = false;
        switch (request.kind) {
            case reason::QueryKind::Feasibility:
            case reason::QueryKind::Explain: {
                sat = backend.check() == smt::CheckStatus::Sat;
                if (sat) break;
                std::vector<int> core = backend.unsatCore().tracks;
                if (request.kind == reason::QueryKind::Explain) {
                    // Engine::explainMinimalConflict's deletion loop.
                    for (std::size_t i = 0; i < core.size();) {
                        std::vector<int> candidate = core;
                        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
                        if (backend.checkWithTracks(candidate) == smt::CheckStatus::Unsat) {
                            std::vector<int> shrunk = backend.unsatCore().tracks;
                            core = shrunk.empty() ? candidate : std::move(shrunk);
                            i = 0;
                        } else {
                            ++i;
                        }
                    }
                }
                result.conflictingRules = compilation->describeTracks(core);
                break;
            }
            case reason::QueryKind::Synthesize:
                sat = backend.check() == smt::CheckStatus::Sat;
                if (sat) extract();
                break;
            case reason::QueryKind::Optimize: {
                const smt::OptimizeResult r = backend.optimize(compilation->objectives());
                sat = r.feasible;
                if (sat) {
                    extract();
                    designs.back().objectiveCosts = r.costs;
                }
                break;
            }
            case reason::QueryKind::Enumerate: {
                sat = backend.optimize(compilation->objectives()).feasible;
                while (sat && static_cast<int>(designs.size()) < request.maxDesigns &&
                       backend.check() == smt::CheckStatus::Sat) {
                    extract();
                    session->blockCurrentDesign();
                }
                sat = !designs.empty();
                break;
            }
        }
        const double solveMs = msSince(solveStart) - extractMs;
        result.trace.stats = backend.stats();
        addSolverStats(samples_, result.trace.stats, sat::SolverStats{}, solveMs);
        attributed += solveMs;
        if (extractMs > 0.0) {
            samples_.add("extract_ms", extractMs);
            attributed += extractMs;
        }
        attributed += timed([&] {
            sat::SolverSnapshot snap = session->exportSnapshot();
            if (!snap.empty())
                service_.storeSnapshot(request.problem, std::make_shared<const sat::SolverSnapshot>(std::move(snap)));
        });
        if (!designs.empty()) {
            samples_.add("validate_ms", timed([&] {
                for (const reason::Design& d : designs) (void)reason::validateDesign(request.problem, d);
            }));
        }

        result.verdict = sat ? reason::Verdict::Sat : reason::Verdict::Unsat;
        outcome_.verdict = reason::verdictName(result.verdict);
        if (request.kind == reason::QueryKind::Optimize && sat) outcome_.costs = designs.front().objectiveCosts;
        outcome_.designs = designs.size();
        outcome_.countsFrom(result.trace.stats);
        result.trace.kind = request.kind;
        result.trace.verdict = result.verdict;
        if (request.kind == reason::QueryKind::Enumerate) result.designs = std::move(designs);
        else if (!designs.empty()) result.design = std::move(designs.front());
        net::HttpResponse response;
        const double serializeMs = timed([&] {
            response = serve::apiResponse(200, reason::resultToJson(result, request.options.collectTrace));
        });
        samples_.add("serialize_ms", serializeMs);
        attributed += serializeMs;
        return response;
    }

    net::HttpResponse create(const net::HttpRequest& req, const std::string& id, double& attributed) {
        LiveSession live;
        const double decodeMs = timed([&] {
            live.problem = reason::problemFromJson(json::parse(req.body).at("problem"), kb_);
        });
        samples_.add("decode_ms", decodeMs);
        attributed += decodeMs;
        const Clock::time_point createStart = Clock::now();
        const std::shared_ptr<const reason::Compilation> compilation =
            compilationFor(live.problem, attributed);
        reason::QueryOptions options;
        options.warmStart = service_.snapshotFor(live.problem);
        const double encodeMs = timed([&] {
            live.session = std::make_unique<reason::SolverSession>(compilation, options);
        });
        samples_.add("encode_ms", encodeMs);
        attributed += encodeMs;
        samples_.add("session.create_ms", msSince(createStart));
        outcome_.verdict = "created";
        outcome_.warmStarted = live.session->warmStarted();
        json::Value body;
        body["id"] = id;
        body["warm_started"] = live.session->warmStarted();
        net::HttpResponse response;
        const double serializeMs = timed([&] { response = serve::apiResponse(200, std::move(body)); });
        samples_.add("serialize_ms", serializeMs);
        attributed += serializeMs;
        live_.emplace(id, std::move(live));
        return response;
    }

    net::HttpResponse ask(const Op& op, const net::HttpRequest& req, const std::string& id,
                          double& attributed) {
        LiveSession& live = live_.at(id);
        reason::Variation variation;
        const double decodeMs = timed([&] { variation = serve::variationFromJson(json::parse(req.body)); });
        samples_.add("decode_ms", decodeMs);
        attributed += decodeMs;

        // WhatIfSession::ask: the variation as solver assumptions.
        const Clock::time_point askStart = Clock::now();
        reason::SolverSession& session = *live.session;
        const reason::Compilation& compilation = session.compilation();
        std::vector<smt::NodeId> assumptions;
        for (const auto& [name, on] : variation.systems) {
            const smt::NodeId v = compilation.systemVar(name);
            assumptions.push_back(on ? v : session.store().mkNot(v));
        }
        for (const auto& [cls, model] : variation.hardwareModels)
            assumptions.push_back(compilation.hardwareVar(cls, model));
        for (const auto& [name, on] : variation.options) {
            const smt::NodeId v = compilation.optionVar(name);
            assumptions.push_back(on ? v : session.store().mkNot(v));
        }
        reason::WhatIfAnswer answer;
        const Clock::time_point solveStart = Clock::now();
        const bool sat = session.backend().check(assumptions) == smt::CheckStatus::Sat;
        double solveMs = msSince(solveStart);
        double extractMs = 0.0;
        if (sat) {
            answer.verdict = reason::Verdict::Sat;
            extractMs = timed([&] { answer.design = session.extractDesign(); });
            samples_.add("extract_ms", extractMs);
        } else {
            answer.verdict = reason::Verdict::Unsat;
            const double coreMs = timed([&] {
                answer.conflictingRules = compilation.describeTracks(session.backend().unsatCore().tracks);
            });
            solveMs += coreMs;
        }
        samples_.add("session.ask_ms", msSince(askStart));
        const sat::SolverStats now = session.backend().stats();
        addSolverStats(samples_, now, live.last, solveMs);
        live.last = now;
        outcome_.verdict = reason::verdictName(answer.verdict);
        outcome_.designs = answer.design.has_value() ? 1 : 0;
        outcome_.countsFrom(now);
        attributed += solveMs + extractMs;
        if (answer.design.has_value()) {
            const reason::Problem folded = foldVariation(w_.problems[static_cast<std::size_t>(op.problem)], variation);
            samples_.add("validate_ms", timed([&] { (void)reason::validateDesign(folded, *answer.design); }));
        }
        reason::QueryTrace trace;
        trace.kind = reason::QueryKind::Feasibility;
        trace.verdict = answer.verdict;
        trace.stats = now;
        net::HttpResponse response;
        const double serializeMs = timed([&] {
            response = serve::apiResponse(200, serve::answerToJson(answer, &trace));
        });
        samples_.add("serialize_ms", serializeMs);
        attributed += serializeMs;
        return response;
    }

    const Workload& w_;
    const kb::KnowledgeBase& kb_;
    reason::Service service_;
    std::map<std::string, LiveSession> live_;
    Samples samples_;
    Outcome outcome_; ///< of the request in progress
    std::vector<Answer> answers_;
    std::size_t requests_ = 0, sessions_ = 0, lookups_ = 0, hits_ = 0;
};

/// The program's own answers to the same sequence: reason::Service::run and
/// reason::SessionManager, called as larserved's routes call them, on a
/// fresh Service with larserved's defaults.
class Reference {
public:
    explicit Reference(const kb::KnowledgeBase& kb) : kb_(kb), service_(larservedDefaults()), sessions_(service_) {}

    /// Answers the ops of `script` in order.
    void run(const Script& script, std::vector<Outcome>& out) {
        std::string id;
        for (const Op& op : script) {
            Outcome o;
            switch (op.type) {
                case OpType::Query: {
                    reason::QueryRequest request =
                        reason::queryRequestFromJson(json::parse(op.body), kb_, reason::QueryOptions{}, 0);
                    request.options.collectTrace = true; // keeps the solver stats in the result
                    const reason::QueryResult r = service_.run(request);
                    o.verdict = reason::verdictName(r.verdict);
                    if (request.kind == reason::QueryKind::Optimize && r.design.has_value())
                        o.costs = r.design->objectiveCosts;
                    o.designs = request.kind == reason::QueryKind::Enumerate ? r.designs.size()
                                                                             : r.design.has_value() ? 1 : 0;
                    o.countsFrom(r.trace.stats);
                    break;
                }
                case OpType::SessionCreate: {
                    const reason::SessionManager::CreateResult c =
                        sessions_.create(reason::problemFromJson(json::parse(op.body).at("problem"), kb_));
                    id = c.id;
                    o.verdict = c.shed ? "shed" : "created";
                    o.warmStarted = c.warmStarted;
                    break;
                }
                case OpType::SessionAsk: {
                    const std::optional<reason::SessionManager::AskOutcome> a =
                        sessions_.ask(id, serve::variationFromJson(json::parse(op.body)));
                    if (!a.has_value()) {
                        o.verdict = "unknown session";
                        break;
                    }
                    o.verdict = reason::verdictName(a->answer.verdict);
                    o.designs = a->answer.design.has_value() ? 1 : 0;
                    o.countsFrom(a->trace.stats);
                    break;
                }
                case OpType::SessionDelete:
                    o.verdict = sessions_.close(id) ? "closed" : "unknown session";
                    break;
            }
            out.push_back(std::move(o));
        }
    }

private:
    const kb::KnowledgeBase& kb_;
    reason::Service service_;
    reason::SessionManager sessions_;
};

} // namespace

const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
    static const std::vector<std::pair<std::string, std::string>> metrics = {
        {"http.parse_ms", "ms"},          {"http.write_ms", "ms"},
        {"decode_ms", "ms"},              {"cache.hit_ratio", "ratio"},
        {"compile_ms", "ms"},             {"compile.nodes", "count"},
        {"compile.hard_assertions", "count"}, {"encode_ms", "ms"},
        {"simplify_ms", "ms"},            {"simplify.rounds", "count"},
        {"simplify.eliminated_vars", "count"}, {"search_ms", "ms"},
        {"search.solves", "count"},       {"search.conflicts", "count"},
        {"search.decisions", "count"},    {"search.propagations", "count"},
        {"extract_ms", "ms"},             {"validate_ms", "ms"},
        {"serialize_ms", "ms"},           {"unattributed_ms", "ms"},
        {"replay.request_ms", "ms"}};
    return metrics;
}

ReplayResult replay(const Workload& w, const kb::KnowledgeBase& kb, std::size_t rounds,
                    double e2eP50Ms, Oracle& oracle) {
    std::vector<const Script*> scripts;
    for (const Script& s : w.warmup) scripts.push_back(&s);
    for (std::size_t i = 0; i < rounds && i < w.rounds.size(); ++i)
        for (const Script& s : w.rounds[i]) scripts.push_back(&s);

    Replayer r(w, kb);
    for (const Script* s : scripts) r.run(*s);
    // The program's own answers, after the timed replay so they do not
    // disturb it.
    std::vector<Outcome> expected;
    {
        Reference program(kb);
        for (const Script* s : scripts) program.run(*s, expected);
    }

    ReplayResult out;
    out.requests = r.requests();
    std::map<std::string, int> reasons;
    for (std::size_t i = 0; i < r.answers().size(); ++i) {
        const Answer& a = r.answers()[i];
        std::string bad = oracle.judge(w, *a.op, 200, a.body);
        if (bad.empty() && !(a.outcome == expected[i]))
            bad = "replay answered " + a.outcome.describe() + ", the program " + expected[i].describe();
        if (bad.empty()) continue;
        ++out.failed;
        if (reasons[a.op->kind + ": " + bad]++ == 0)
            std::fprintf(stderr, "FAILED replay of %s #%zu: %s\n", a.op->kind.c_str(), i, bad.c_str());
    }
    for (const auto& [name, values] : r.samples().by) out.metrics[name] = median(values);
    out.metrics["cache.hit_ratio"] = r.hitRatio();
    out.metrics["unattributed_ms"] = e2eP50Ms - out.metrics["attributed_ms"];
    out.metrics["replay.overhead_ms"] = out.metrics["replay.request_ms"] - e2eP50Ms;
    for (const auto& [name, unit] : perLayerMetrics()) out.metrics.emplace(name, 0.0);
    return out;
}

} // namespace larbench
