#include "oracle.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "json/parse.hpp"
#include "json/write.hpp"
#include "kb/serialize.hpp"
#include "reason/compile.hpp"
#include "reason/engine.hpp"
#include "reason/problem_io.hpp"
#include "reason/validate.hpp"

namespace larbench {

using namespace lar;

namespace {

std::string fnvHex(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

std::string joinRules(const std::vector<std::string>& rules) {
    std::string out;
    for (const std::string& r : rules) out += r + "\n";
    return out;
}

/// The Z3 backend's answer for `problem` in `mode`.
Expectation solveZ3(const reason::Problem& problem, const std::string& mode) {
    reason::Engine engine(problem, reason::withBackend(smt::BackendKind::Z3));
    Expectation e;
    if (mode == "optimize") {
        const std::optional<reason::Design> design = engine.optimize();
        if (engine.lastQueryUnknown()) throw std::runtime_error("Z3 gave up");
        e.verdict = design.has_value() ? "sat" : "unsat";
        if (design.has_value()) e.costs = design->objectiveCosts;
    } else {
        const reason::FeasibilityReport report = engine.checkFeasible();
        if (report.timedOut) throw std::runtime_error("Z3 gave up");
        e.verdict = report.feasible ? "sat" : "unsat";
    }
    return e;
}

/// The problem an op is judged against: the query's, or a session base
/// with the ask's pins folded in.
reason::Problem judgedProblem(const Workload& w, const Op& op) {
    const reason::Problem& base = w.problems[static_cast<std::size_t>(op.problem)];
    if (op.type == OpType::SessionAsk)
        return foldVariation(base, w.variations[static_cast<std::size_t>(op.variation)]);
    return base;
}

std::string violations(const reason::Problem& problem, const reason::Design& design) {
    const std::vector<std::string> v = reason::validateDesign(problem, design);
    return v.empty() ? "" : "design fails validation: " + v.front();
}

} // namespace

reason::Design designFromWire(const json::Value& v) {
    reason::Design d;
    for (const auto& [category, name] : v.at("systems").asObject().entries()) {
        bool found = false;
        for (const kb::Category c : kb::kAllCategories) {
            if (kb::toString(c) == category) {
                d.chosen[c] = name.asString();
                found = true;
            }
        }
        if (!found) throw std::runtime_error("unknown category " + category);
    }
    for (const auto& [cls, model] : v.at("hardware").asObject().entries()) {
        kb::HardwareClass hc = kb::HardwareClass::Server;
        if (cls == "switch") hc = kb::HardwareClass::Switch;
        else if (cls == "nic") hc = kb::HardwareClass::Nic;
        else if (cls != "server") throw std::runtime_error("unknown class " + cls);
        d.hardwareModel[hc] = model.asString();
    }
    for (const json::Value& o : v.at("options").asArray()) d.enabledOptions.insert(o.asString());
    for (const json::Value& f : v.at("facts").asArray()) d.activeFacts.insert(f.asString());
    d.hardwareCostUsd = v.at("hardware_cost_usd").asDouble();
    d.powerW = v.at("power_w").asDouble();
    for (const json::Value& c : v.at("objective_costs").asArray())
        d.objectiveCosts.push_back(c.asInt());
    return d;
}

Oracle::Oracle(const kb::KnowledgeBase& kb, std::string expectPath)
    : kb_(kb), kbHash_(fnvHex(kb::kbToText(kb))) {
    std::ifstream in(expectPath);
    if (!in) return;
    std::stringstream text;
    text << in.rdbuf();
    const json::Value doc = json::parse(text.str());
    for (const auto& [key, e] : doc.at("expect").asObject().entries()) {
        Expectation x;
        x.verdict = e.at("verdict").asString();
        if (e.asObject().contains("costs"))
            for (const json::Value& c : e.at("costs").asArray()) x.costs.push_back(c.asInt());
        expect_.emplace(key, std::move(x));
    }
}

Oracle::Need Oracle::need(const Workload& w, const Op& op) const {
    Need n;
    n.mode = (op.kind == "optimize" || op.kind == "enumerate") ? "optimize" : "check";
    std::string text = kbHash_ + "\n" + n.mode + "\n" +
                       w.problemSpecs[static_cast<std::size_t>(op.problem)];
    if (op.type == OpType::SessionAsk)
        text += "\n" + w.variationSpecs[static_cast<std::size_t>(op.variation)];
    n.key = fnvHex(text);
    return n;
}

Expectation Oracle::expectation(const Workload& w, const Op& op) {
    const Need n = need(w, op);
    const auto it = expect_.find(n.key);
    if (it != expect_.end()) return it->second;
    ++live_;
    Expectation e = solveZ3(judgedProblem(w, op), n.mode);
    expect_.emplace(n.key, e);
    return e;
}

std::string Oracle::checkExplain(const reason::Problem& problem,
                                 const std::vector<std::string>& rules) {
    const std::string key = fnvHex(json::write(reason::toJson(problem))) + joinRules(rules);
    const auto it = explainVerdicts_.find(key);
    if (it != explainVerdicts_.end()) return it->second;

    std::string verdict;
    const auto compilation = std::make_shared<const reason::Compilation>(problem);
    // A description may name several tracks; dropping a rule drops them all.
    std::vector<std::vector<int>> tracks;
    for (const std::string& rule : rules) {
        std::vector<int> ids;
        const std::vector<std::string>& all = compilation->trackedRules();
        for (std::size_t t = 0; t < all.size(); ++t)
            if (all[t] == rule) ids.push_back(static_cast<int>(t));
        if (ids.empty()) verdict = "explain names an unknown rule: " + rule;
        tracks.push_back(std::move(ids));
    }
    const auto active = [&](std::size_t skip) {
        std::vector<int> out;
        for (std::size_t i = 0; i < tracks.size(); ++i)
            if (i != skip) out.insert(out.end(), tracks[i].begin(), tracks[i].end());
        return out;
    };
    if (verdict.empty()) {
        reason::SolverSession session(compilation, reason::withBackend(smt::BackendKind::Z3));
        if (session.backend().checkWithTracks(active(tracks.size())) != smt::CheckStatus::Unsat)
            verdict = "explain rule set is satisfiable under Z3";
        for (std::size_t i = 0; verdict.empty() && i < tracks.size(); ++i) {
            if (session.backend().checkWithTracks(active(i)) != smt::CheckStatus::Sat)
                verdict = "explain rule set is not minimal: without '" + rules[i] +
                          "' it is still unsat under Z3";
        }
    }
    explainVerdicts_.emplace(key, verdict);
    return verdict;
}

std::string Oracle::judge(const Workload& w, const Op& op, int status,
                          const std::string& body) {
    if (status != 200) return "HTTP status " + std::to_string(status);
    try {
        const json::Value v = json::parse(body);
        const json::Object& obj = v.asObject();
        if (op.type == OpType::SessionCreate)
            return obj.contains("id") && !v.at("id").asString().empty() ? "" : "no session id";
        if (op.type == OpType::SessionDelete)
            return obj.contains("closed") && v.at("closed").asBool() ? "" : "session not closed";

        const reason::Problem problem = judgedProblem(w, op);
        const Expectation expected = expectation(w, op);
        const std::string verdict = v.at("verdict").asString();
        if (verdict != expected.verdict)
            return "verdict " + verdict + ", Z3 says " + expected.verdict;
        if (verdict == "unsat") {
            if (!obj.contains("conflicting_rules") && op.kind != "optimize" &&
                op.kind != "enumerate" && op.kind != "synthesize")
                return "unsat without conflicting_rules";
            if (op.kind == "explain") {
                std::vector<std::string> rules;
                for (const json::Value& r : v.at("conflicting_rules").asArray())
                    rules.push_back(r.asString());
                return checkExplain(problem, rules);
            }
            return "";
        }
        if (op.kind == "enumerate") {
            const json::Array& designs = v.at("designs").asArray();
            if (designs.empty() || static_cast<int>(designs.size()) > op.maxDesigns)
                return "enumerate returned " + std::to_string(designs.size()) + " designs";
            std::set<std::string> seen;
            for (const json::Value& d : designs) {
                // Enumeration blocks the projection on systems + hardware.
                if (!seen.insert(json::write(d.at("systems")) + json::write(d.at("hardware"))).second)
                    return "enumerate repeated a design";
                const std::string bad = violations(problem, designFromWire(d));
                if (!bad.empty()) return bad;
            }
            return "";
        }
        if (op.kind == "synthesize" || op.kind == "optimize" || op.type == OpType::SessionAsk) {
            if (!obj.contains("design")) return "sat answer without a design";
            const reason::Design design = designFromWire(v.at("design"));
            if (op.kind == "optimize" && design.objectiveCosts != expected.costs)
                return "objective_costs differ from Z3's optimum";
            return violations(problem, design);
        }
        return "";
    } catch (const std::exception& e) {
        return std::string("malformed answer: ") + e.what();
    }
}

bool Oracle::regenerate(const kb::KnowledgeBase& kb, const std::vector<std::string>& workloads,
                        const std::string& expectPath, unsigned threads) {
    Oracle keys(kb, "");
    struct Job {
        const Workload* w;
        const Op* op;
        Need need;
    };
    std::vector<Workload> catalogues;
    catalogues.reserve(workloads.size());
    for (const std::string& name : workloads) catalogues.push_back(makeCatalogue(name, kb));
    std::vector<Job> jobs;
    std::set<std::string> queued;
    for (const Workload& w : catalogues) {
        std::vector<const Script*> scripts;
        for (const Script& s : w.warmup) scripts.push_back(&s);
        for (const std::vector<Script>& round : w.rounds)
            for (const Script& s : round) scripts.push_back(&s);
        for (const Script* s : scripts) {
            for (const Op& op : *s) {
                if (op.type == OpType::SessionCreate || op.type == OpType::SessionDelete) continue;
                Need n = keys.need(w, op);
                if (queued.insert(n.key).second) jobs.push_back({&w, &op, std::move(n)});
            }
        }
    }
    std::fprintf(stderr, "regenerating %zu Z3 expectations on %u threads\n", jobs.size(), threads);
    std::vector<Expectation> results(jobs.size());
    std::atomic<std::size_t> next{0}, done{0};
    std::atomic<bool> ok{true};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
                try {
                    results[i] = solveZ3(judgedProblem(*jobs[i].w, *jobs[i].op), jobs[i].need.mode);
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "entry %zu: %s\n", i, e.what());
                    ok = false;
                }
                if (++done % 100 == 0) std::fprintf(stderr, "  %zu/%zu\n", done.load(), jobs.size());
            }
        });
    }
    for (std::thread& t : pool) t.join();

    std::map<std::string, std::map<std::string, int>> verdicts; // workload → verdict → n
    std::ofstream out(expectPath);
    out << "{\"about\": \"Z3 verdicts and optimize costs for every request perfbench can "
           "send; regenerate with: python3 perfbench/run.py --regen-oracle\",\n"
           " \"expect\": {\n";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        json::Value e;
        e["verdict"] = results[i].verdict;
        if (jobs[i].need.mode == "optimize" && results[i].verdict == "sat") {
            json::Array costs;
            for (const std::int64_t c : results[i].costs) costs.emplace_back(c);
            e["costs"] = json::Value(std::move(costs));
        }
        out << "  \"" << jobs[i].need.key << "\": " << json::write(e)
            << (i + 1 < jobs.size() ? ",\n" : "\n");
        ++verdicts[jobs[i].w->name + " " + jobs[i].op->kind][results[i].verdict];
    }
    out << " }\n}\n";
    for (const auto& [what, counts] : verdicts) {
        std::fprintf(stderr, "%-34s", what.c_str());
        for (const auto& [verdict, n] : counts) std::fprintf(stderr, " %s=%d", verdict.c_str(), n);
        std::fprintf(stderr, "\n");
    }
    return ok.load() && static_cast<bool>(out);
}

} // namespace larbench
