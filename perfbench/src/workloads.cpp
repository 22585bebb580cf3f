#include "workloads.hpp"

#include <map>
#include <set>
#include <stdexcept>

#include "catalog/catalog.hpp"
#include "json/value.hpp"
#include "json/write.hpp"
#include "kb/objectives.hpp"
#include "kb/serialize.hpp"
#include "reason/problem_io.hpp"

namespace larbench {

using namespace lar;

std::uint64_t Rng::next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

const std::vector<std::string>& workloadNames() {
    static const std::vector<std::string> names = {
        "repeat-queries", "cold-variations", "whatif-session"};
    return names;
}

namespace {

/// The server model the §2.3 baseline design picks: §5.1 query 1 freezes
/// the servers at it ("I can't change my servers").
constexpr const char* kCurrentServers = "EPYC Milan 48c 1U";

/// A problem spec in the compact form an architect would write.
struct Spec {
    int servers = 60;
    int switches = 8;
    int nics = 60;
    std::string serverPin;
    std::vector<std::string> serverCandidates;
    std::vector<std::string> workloads{"inference"};
    bool memoryRule = false; ///< §5.1 query 3: ≥512 GB RAM or CXL pooling
    std::map<std::string, bool> pins;
};

kb::Workload namedWorkload(const std::string& name) {
    if (name == "inference") return catalog::makeInferenceWorkload();
    if (name == "video") return catalog::makeVideoWorkload();
    if (name == "batch") return catalog::makeBatchWorkload();
    return catalog::makeStorageWorkload();
}

std::vector<std::string> nonCxlServers(const kb::KnowledgeBase& kb) {
    std::vector<std::string> models;
    for (const kb::HardwareSpec* h : kb.byClass(kb::HardwareClass::Server))
        if (!h->boolAttr(kb::kAttrCxlSupported).value_or(false))
            models.push_back(h->model);
    return models;
}

std::string specText(const Spec& s) {
    json::Value server;
    server["count"] = s.servers;
    if (!s.serverPin.empty()) server["pinned_model"] = s.serverPin;
    if (!s.serverCandidates.empty()) {
        json::Array models;
        for (const std::string& m : s.serverCandidates) models.emplace_back(m);
        server["candidates"] = json::Value(std::move(models));
    }
    json::Value hardware;
    hardware["server"] = std::move(server);
    hardware["switch"]["count"] = s.switches;
    hardware["nic"]["count"] = s.nics;

    json::Value v;
    v["hardware"] = std::move(hardware);
    json::Array workloads;
    for (const std::string& w : s.workloads)
        workloads.push_back(kb::toJson(namedWorkload(w)));
    v["workloads"] = json::Value(std::move(workloads));
    v["objective_priority"] = json::Value(json::Array{
        json::Value(kb::kObjLatency), json::Value(kb::kObjHardwareCost),
        json::Value(kb::kObjMonitoring)});
    v["required_capabilities"] =
        json::Value(json::Array{json::Value(catalog::kCapDetectQueueLength)});
    if (!s.pins.empty()) {
        json::Value pins;
        for (const auto& [name, on] : s.pins) pins[name] = on;
        v["pinned_systems"] = std::move(pins);
    }
    if (s.memoryRule) {
        v["extra_constraint"] = kb::toJson(kb::Requirement::anyOf(
            {kb::Requirement::hardwareCmp(kb::HardwareClass::Server,
                                          kb::kAttrRamGb, kb::CmpOp::Ge, 512.0),
             kb::Requirement::hardwareHas(kb::HardwareClass::Server,
                                          kb::kAttrCxlSupported)}));
    }
    return json::write(v);
}

/// The §2.3 case study and its §5.1 variants, in a fixed order.
enum Named { Base, Frozen, Unfrozen, SonataPinned, CxlAllowed, CxlForbidden };

std::vector<Spec> namedSpecs(const kb::KnowledgeBase& kb) {
    Spec base;
    Spec frozen = base;
    frozen.serverPin = kCurrentServers;
    frozen.workloads = {"inference", "video", "batch"};
    Spec unfrozen = frozen;
    unfrozen.serverPin.clear();
    Spec sonata = base;
    sonata.pins["Sonata"] = true;
    Spec cxl = base;
    cxl.workloads = {"inference", "storage"};
    cxl.memoryRule = true;
    Spec noCxl = cxl;
    noCxl.serverCandidates = nonCxlServers(kb);
    return {base, frozen, unfrozen, sonata, cxl, noCxl};
}

/// Registers a problem spec (deduplicated) and returns its index.
int addProblem(Workload& w, const std::string& spec, const kb::KnowledgeBase& kb,
               std::map<std::string, int>& seen) {
    const auto it = seen.find(spec);
    if (it != seen.end()) return it->second;
    const int index = static_cast<int>(w.problems.size());
    w.problems.push_back(reason::problemFromText(spec, kb));
    w.problemSpecs.push_back(spec);
    seen.emplace(spec, index);
    return index;
}

Op queryOp(const Workload& w, const std::string& kind, int problem,
           int maxDesigns = 0) {
    Op op;
    op.type = OpType::Query;
    op.kind = kind;
    op.problem = problem;
    op.maxDesigns = maxDesigns;
    op.body = "{\"kind\":\"" + kind + "\",";
    if (maxDesigns > 0) op.body += "\"max_designs\":" + std::to_string(maxDesigns) + ",";
    op.body += "\"problem\":" + w.problemSpecs[static_cast<std::size_t>(problem)] + "}";
    return op;
}

// -- repeat-queries -----------------------------------------------------------

/// One round of 25: 18 check-type requests (feasible, synthesize, explain,
/// about 17 ms each when cached) and 7 heavy ones (optimize, enumerate,
/// 60-80 ms). Sorted by latency, p50 falls in the middle of the 13th check
/// request and p90 in the middle of the 5th heavy one, each well inside a
/// cluster rather than on a boundary between two kinds of request.
std::vector<Op> repeatRound(Workload& w, const kb::KnowledgeBase& kb) {
    std::map<std::string, int> seen;
    std::vector<int> ids;
    for (const Spec& s : namedSpecs(kb)) ids.push_back(addProblem(w, specText(s), kb, seen));
    static constexpr Named kAll[] = {Base, Frozen, Unfrozen, SonataPinned, CxlAllowed, CxlForbidden};
    std::vector<Op> ops;
    for (const Named p : kAll) ops.push_back(queryOp(w, "feasible", ids[p]));
    for (const Named p : kAll) ops.push_back(queryOp(w, "synthesize", ids[p]));
    for (int i = 0; i < 6; ++i) ops.push_back(queryOp(w, "explain", ids[Frozen]));
    for (const Named p : {Base, Unfrozen, SonataPinned, CxlAllowed, CxlForbidden})
        ops.push_back(queryOp(w, "optimize", ids[p]));
    ops.push_back(queryOp(w, "enumerate", ids[Base], 8));
    ops.push_back(queryOp(w, "enumerate", ids[CxlAllowed], 8));
    return ops;
}

// -- cold-variations ----------------------------------------------------------

constexpr std::size_t kColdFeasible = 7;  ///< per round
constexpr std::size_t kColdOptimize = 3;  ///< per round
/// Warm-up: more distinct problems than the 32-entry compilation cache
/// holds, so the cache, its warm-start twin and the allocator's arenas are
/// full before timing starts.
constexpr std::size_t kColdWarmup = 36;
constexpr std::size_t kColdCatalogueRounds = 320;

/// Systems a what-if may forbid or require. Chosen so that pins seldom make
/// the problem infeasible (0.9% of the catalogue is, Z3 agreeing) but often
/// move the optimum, which is the point.
const std::vector<std::string>& coldForbid() {
    static const std::vector<std::string> v = {
        "Sonata", "PingMesh", "sFlow", "Cubic", "BBR", "DCTCP", "Swift",
        "ECMP", "OVS", "QUIC", "Snap", "INT-Telemetry"};
    return v;
}
const std::vector<std::string>& coldRequire() {
    static const std::vector<std::string> v = {
        "DCTCP", "Swift", "Cubic", "OVS", "TCP", "Linux", "Snap", "SIMON"};
    return v;
}

/// Catalogue entry `index` of stream `stream` (0 feasible, 1 optimize,
/// 2 warm-up): a §5.1 template with seeded hardware counts, an added
/// workload, a pinned or forbidden system, or the CXL memory rule.
Spec coldSpec(const kb::KnowledgeBase& kb, int stream, std::size_t index) {
    Rng rng(0x5eedc01dULL ^ (static_cast<std::uint64_t>(stream) << 40) ^ index);
    const std::vector<Spec> named = namedSpecs(kb);
    static constexpr Named kTemplates[] = {Base, Unfrozen, SonataPinned,
                                           CxlAllowed, CxlForbidden};
    const Named t = kTemplates[rng.below(5)];
    Spec s = named[t];
    s.servers = 60 + static_cast<int>(rng.below(49));
    s.nics = s.servers;
    s.switches = 6 + static_cast<int>(rng.below(11));
    const std::size_t extra = rng.below(4);
    if (extra > 0) {
        static const char* kExtra[] = {"", "video", "batch", "storage"};
        const std::string name = kExtra[extra];
        bool present = false;
        for (const std::string& w : s.workloads) present = present || w == name;
        if (!present) s.workloads.push_back(name);
    }
    const std::size_t pin = rng.below(3);
    if (pin == 1) {
        const std::string& sys = coldForbid()[rng.below(coldForbid().size())];
        if (!s.pins.count(sys)) s.pins[sys] = false;
    } else if (pin == 2) {
        const std::string& sys = coldRequire()[rng.below(coldRequire().size())];
        if (!s.pins.count(sys) && !(t == SonataPinned && sys == "SIMON"))
            s.pins[sys] = true;
    }
    if (!s.memoryRule && rng.below(3) == 0) s.memoryRule = true;
    return s;
}

struct ColdCatalogue {
    std::vector<int> feasible, optimize, warmup; ///< problem indices
};

ColdCatalogue coldCatalogue(Workload& w, const kb::KnowledgeBase& kb) {
    std::map<std::string, int> seen;
    ColdCatalogue c;
    const auto fill = [&](int stream, std::size_t count, std::vector<int>& out) {
        for (std::size_t i = 0; out.size() < count; ++i) {
            const std::string spec = specText(coldSpec(kb, stream, i));
            if (seen.count(spec)) continue; // every entry a distinct problem
            out.push_back(addProblem(w, spec, kb, seen));
        }
    };
    fill(0, kColdFeasible * kColdCatalogueRounds, c.feasible);
    fill(1, kColdOptimize * kColdCatalogueRounds, c.optimize);
    fill(2, kColdWarmup, c.warmup);
    return c;
}

// -- whatif-session -----------------------------------------------------------

constexpr Named kSessionBases[] = {Base, Unfrozen, SonataPinned, CxlAllowed,
                                   CxlForbidden};

struct AskCatalogue {
    std::vector<int> pins, hardware, options; ///< variation indices
};

int addVariation(Workload& w, reason::Variation v, std::string body) {
    w.variations.push_back(std::move(v));
    w.variationSpecs.push_back(std::move(body));
    return static_cast<int>(w.variations.size()) - 1;
}

AskCatalogue askCatalogue(Workload& w, const kb::KnowledgeBase& kb) {
    AskCatalogue c;
    static const char* kPinSystems[] = {
        "PingMesh", "sFlow", "INT-Telemetry", "DCTCP", "Swift", "HPCC",
        "Cubic", "BBR", "ECMP", "CONGA", "LetFlow", "OVS",
        "SR-IOV-Passthrough", "RoCEv2", "QUIC", "Snap"};
    for (const char* sys : kPinSystems) {
        for (const bool on : {true, false}) {
            reason::Variation v;
            v.systems[sys] = on;
            c.pins.push_back(addVariation(
                w, v,
                std::string("{\"systems\":{\"") + sys + "\":" + (on ? "true" : "false") + "}}"));
        }
    }
    // Forced models: non-CXL servers (candidates of every session base),
    // and an even spread of switch and NIC models.
    const auto spread = [](std::vector<std::string> models, std::size_t n) {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < n; ++i) out.push_back(models[i * models.size() / n]);
        return out;
    };
    const auto models = [&](kb::HardwareClass cls) {
        std::vector<std::string> out;
        for (const kb::HardwareSpec* h : kb.byClass(cls)) out.push_back(h->model);
        return out;
    };
    const std::pair<kb::HardwareClass, std::vector<std::string>> forced[] = {
        {kb::HardwareClass::Server, spread(nonCxlServers(kb), 6)},
        {kb::HardwareClass::Switch, spread(models(kb::HardwareClass::Switch), 5)},
        {kb::HardwareClass::Nic, spread(models(kb::HardwareClass::Nic), 5)}};
    for (const auto& [cls, list] : forced) {
        for (const std::string& model : list) {
            reason::Variation v;
            v.hardwareModels[cls] = model;
            json::Value body;
            body["hardware"][kb::toString(cls)] = model;
            c.hardware.push_back(addVariation(w, v, json::write(body)));
        }
    }
    for (const char* opt : {catalog::kOptPonyEnabled, catalog::kOptScavengerClass}) {
        for (const bool on : {true, false}) {
            reason::Variation v;
            v.options[opt] = on;
            c.options.push_back(addVariation(
                w, v,
                std::string("{\"options\":{\"") + opt + "\":" + (on ? "true" : "false") + "}}"));
        }
    }
    return c;
}

Script sessionScript(const Workload& w, int base, const std::vector<int>& asks) {
    Script s;
    Op create;
    create.type = OpType::SessionCreate;
    create.kind = "create";
    create.problem = base;
    create.body = "{\"problem\":" + w.problemSpecs[static_cast<std::size_t>(base)] + "}";
    s.push_back(create);
    for (const int v : asks) {
        Op ask;
        ask.type = OpType::SessionAsk;
        ask.kind = "ask";
        ask.problem = base;
        ask.variation = v;
        ask.body = w.variationSpecs[static_cast<std::size_t>(v)];
        s.push_back(ask);
    }
    Op del;
    del.type = OpType::SessionDelete;
    del.kind = "delete";
    del.problem = base;
    s.push_back(del);
    return s;
}

std::vector<int> sessionBaseIds(Workload& w, const kb::KnowledgeBase& kb) {
    std::map<std::string, int> seen;
    const std::vector<Spec> named = namedSpecs(kb);
    std::vector<int> ids;
    for (const Named b : kSessionBases) ids.push_back(addProblem(w, specText(named[b]), kb, seen));
    return ids;
}

Workload build(const std::string& name, std::uint64_t seed,
               const kb::KnowledgeBase& kb, std::size_t minOps, bool catalogue) {
    Workload w;
    w.name = name;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
    std::size_t ops = 0;
    if (name == "repeat-queries") {
        const std::vector<Op> round = repeatRound(w, kb);
        std::set<std::string> distinct;
        for (const Op& op : round)
            if (distinct.insert(op.body).second) w.warmup.push_back({op});
        while (ops < minOps) {
            std::vector<Op> order = round;
            rng.shuffle(order);
            std::vector<Script> scripts;
            for (Op& op : order) scripts.push_back({std::move(op)});
            ops += scripts.size();
            w.rounds.push_back(std::move(scripts));
        }
    } else if (name == "cold-variations") {
        w.connections = 3;
        ColdCatalogue c = coldCatalogue(w, kb);
        for (const int p : c.warmup) w.warmup.push_back({queryOp(w, "feasible", p)});
        if (catalogue) {
            std::vector<Script> all;
            for (const int p : c.feasible) all.push_back({queryOp(w, "feasible", p)});
            for (const int p : c.optimize) all.push_back({queryOp(w, "optimize", p)});
            w.rounds.push_back(std::move(all));
            return w;
        }
        rng.shuffle(c.feasible);
        rng.shuffle(c.optimize);
        for (std::size_t r = 0; ops < minOps; ++r) {
            std::vector<Script> scripts;
            for (std::size_t i = 0; i < kColdFeasible; ++i)
                scripts.push_back({queryOp(
                    w, "feasible", c.feasible[(r * kColdFeasible + i) % c.feasible.size()])});
            for (std::size_t i = 0; i < kColdOptimize; ++i)
                scripts.push_back({queryOp(
                    w, "optimize", c.optimize[(r * kColdOptimize + i) % c.optimize.size()])});
            rng.shuffle(scripts);
            ops += scripts.size();
            w.rounds.push_back(std::move(scripts));
        }
    } else if (name == "whatif-session") {
        const std::vector<int> bases = sessionBaseIds(w, kb);
        const AskCatalogue c = askCatalogue(w, kb);
        for (std::size_t i = 0; i < bases.size(); ++i)
            w.warmup.push_back(sessionScript(
                w, bases[i],
                {c.pins[i % c.pins.size()], c.hardware[i % c.hardware.size()],
                 c.options[i % c.options.size()]}));
        if (catalogue) {
            std::vector<Script> all;
            for (const int b : bases) {
                std::vector<int> asks = c.pins;
                asks.insert(asks.end(), c.hardware.begin(), c.hardware.end());
                asks.insert(asks.end(), c.options.begin(), c.options.end());
                all.push_back(sessionScript(w, b, asks));
            }
            w.rounds.push_back(std::move(all));
            return w;
        }
        // One round is one session of 7 requests: create, two pins, two
        // forced hardware models, a toggled option, delete. The create and
        // the session's first ask (its first real solve) take about 10 ms,
        // the other asks and the delete about 2 ms. Sorted by latency, p50
        // falls in the middle of the 4th of 5 fast requests and p90 inside
        // the 2nd of 2 slow ones.
        while (ops < minOps) {
            const int base = bases[rng.below(bases.size())];
            std::vector<int> asks = {c.pins[rng.below(c.pins.size())],
                                     c.pins[rng.below(c.pins.size())],
                                     c.hardware[rng.below(c.hardware.size())],
                                     c.hardware[rng.below(c.hardware.size())],
                                     c.options[rng.below(c.options.size())]};
            rng.shuffle(asks);
            w.rounds.push_back({sessionScript(w, base, asks)});
            ops += w.rounds.back().front().size();
        }
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

} // namespace

Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      const kb::KnowledgeBase& kb, std::size_t minOps) {
    return build(name, seed, kb, minOps, false);
}

Workload makeCatalogue(const std::string& name, const kb::KnowledgeBase& kb) {
    return build(name, 0, kb, 1, true);
}

reason::Problem foldVariation(const reason::Problem& base,
                              const reason::Variation& variation) {
    reason::Problem p = base;
    for (const auto& [name, on] : variation.systems) p.pinnedSystems[name] = on;
    for (const auto& [cls, model] : variation.hardwareModels)
        p.hardware[cls].pinnedModel = model;
    for (const auto& [name, on] : variation.options) p.pinnedOptions[name] = on;
    return p;
}

} // namespace larbench
