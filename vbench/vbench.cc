/**
 * @file
 * vbench: host-time benchmark of the vspec reproduction.
 *
 * One process runs one workload (jit-steady, interp-oracle,
 * check-removal, gem5-detailed; see vbench/README.md) for a wall-clock
 * budget. Set-up computes an independent oracle checksum for every cell
 * and is repeated (see kMinSetupRepeats); the timed section then runs the
 * workload's cells in seeded random order, pass after pass, and checks
 * every cell's checksum against the oracle.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 is the separate
 * traced run: it drives each layer through its own public entry point
 * (parseProgram, BytecodeCompiler::compileProgram, Engine::Engine,
 * Engine::loadProgram, Engine::call, buildGraph, runPasses,
 * generateCode, buildPredecoded, makeTimingModel, referenceChecksum,
 * findSafeRemovalSet), wraps every call in a span, and derives the
 * per-layer metrics from the spans' self times. Each traced chain is
 * also run with spans off; the difference is the tracing overhead.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Usage:
 *   vbench --workload NAME --seed N --seconds S --trace 0|1
 *          [--trace-out FILE] [--wrong-reference]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "backend/isel.hh"
#include "bytecode/compiler.hh"
#include "frontend/parser.hh"
#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "ir/builder.hh"
#include "ir/passes.hh"
#include "sim/predecode.hh"

using namespace vspec;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** The first kWarmup bench() calls of a cell are warm-up (interpreter,
 *  tier-up, first optimized call); the rest form the steady-state
 *  window. */
constexpr u32 kWarmup = 4;
/** Set-up is repeated at least kMinSetupRepeats times and until
 *  kSetupSeconds have passed; setup_s is the median. A short set-up
 *  (gem5-detailed: ~0.4 s) thus gets more repeats. */
constexpr u32 kMinSetupRepeats = 3;
constexpr u32 kMaxSetupRepeats = 15;
constexpr double kSetupSeconds = 3.0;
/** A timed section holds at least this many cells, so that at least
 *  ten lie beyond its p90. */
constexpr size_t kMinCells = 100;
/** The characterization figures' PC-sampler period. */
constexpr u64 kSamplerPeriod = 211;
/** findSafeRemovalSet probe iterations; the harness memoizes per
 *  probe count, so each search in a process uses kProbeBase + 2k and
 *  each direct referenceChecksum kProbeBase + 2k + 1 (never reused). */
constexpr u32 kProbeBase = 8;
/** Heap of the standalone bytecode-compile context (traced run). */
constexpr u32 kCompileHeap = 4u << 20;

/** Environment knobs that reach the engine through static defaults a
 *  RunConfig cannot override. */
const char *const kRefusedEnv[] = {
    "VSPEC_MAX_GPRS", "VSPEC_MAX_FPRS", "VSPEC_FAULT",
    "VSPEC_TRACE",    "VSPEC_VERIFY",   "VSPEC_PREDECODE",
};

enum class Kind : u8
{
    JitSteady,
    InterpOracle,
    CheckRemoval,
    Gem5Detailed,
};

const char *const kKindNames[] = {"jit-steady", "interp-oracle",
                                  "check-removal", "gem5-detailed"};

/** bench() calls per cell, indexed by Kind. jit-steady runs long
 *  enough that the simulated steady state dominates its host time;
 *  interp-oracle and check-removal keep short cells, so Engine() weighs
 *  in; gem5-detailed sits between (its detailed models cost more per
 *  instruction). */
constexpr u32 kIterations[] = {20, 10, 10, 20};

/**
 * Moves this single-threaded process to the next CPU it may run on,
 * round robin, before each unit of work. On a shared host the vCPUs
 * see different contention (one measured 25% slower than another), so
 * a run pinned by chance to one of them reads slow or fast as a whole;
 * rotating makes every run sample all of them alike.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    }

    void
    next()
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    std::vector<int> cpus;
    size_t turn = 0;
};

CpuRotation g_cpus;

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

/** One schedulable unit: a single validated run, or for check-removal
 *  a safe-set search followed by its two validated runs. */
struct Unit
{
    u32 index = 0;                //!< canonical position
    const Workload *w = nullptr;
    std::string label;            //!< e.g. "MMUL/arm64"
    RunConfig rc;                 //!< pinned config of the cell's run
    bool traced = false;          //!< in the traced run's subset
    bool harness = false;         //!< traced run drives the harness here

    u32 size() const { return rc.size != 0 ? rc.size : w->defaultSize; }
    std::string oracleKey() const
    {
        return w->name + "#" + std::to_string(size());
    }
};

/** Every RunConfig field a cell's result or cost depends on, set
 *  explicitly rather than inherited from environment-driven defaults. */
RunConfig
pinnedConfig(Kind kind, u64 seed)
{
    RunConfig rc;
    rc.isa = IsaFlavour::Arm64Like;
    rc.cpu.reset();
    rc.iterations = kIterations[static_cast<int>(kind)];
    rc.size = 0;
    rc.enableOptimization = true;
    rc.samplerEnabled = false;
    rc.samplerPeriod = kSamplerPeriod;
    rc.seed = seed;
    rc.jitter = 0;
    rc.profiling = false;
    rc.deoptCost = false;
    rc.verifyLevel = VerifyLevel::Off;
    rc.trace = TraceConfig{};
    rc.faults = FaultConfig::none();
    rc.maxFuelCycles = 0;
    rc.predecode = true;
    return rc;
}

std::vector<Unit>
makeUnits(Kind kind, u64 seed)
{
    std::vector<Unit> units;
    auto add = [&](const Workload &w, std::string label, RunConfig rc,
                   bool traced) {
        Unit u;
        u.index = static_cast<u32>(units.size());
        u.w = &w;
        u.label = std::move(label);
        u.rc = std::move(rc);
        u.traced = traced;
        units.push_back(std::move(u));
    };
    const std::vector<Workload> &all = suite();
    switch (kind) {
      case Kind::JitSteady:
        for (size_t wi = 0; wi < all.size(); wi++) {
            for (u32 isa = 0; isa < 2; isa++) {
                RunConfig rc = pinnedConfig(kind, seed);
                rc.isa = isa == 0 ? IsaFlavour::Arm64Like
                                  : IsaFlavour::X64Like;
                rc.samplerEnabled = true;
                add(all[wi], all[wi].name + "/" + isaFlavourName(rc.isa),
                    rc, isa == wi % 2);
            }
        }
        break;
      case Kind::InterpOracle:
        for (const Workload &w : all) {
            RunConfig rc = pinnedConfig(kind, seed);
            rc.enableOptimization = false;
            add(w, w.name + "/interp", rc, true);
        }
        break;
      case Kind::CheckRemoval:
        for (size_t wi = 0; wi < all.size(); wi++) {
            RunConfig rc = pinnedConfig(kind, seed);
            rc.size = all[wi].gem5Size;
            add(all[wi], all[wi].name + "/removal", rc, wi % 2 == 0);
        }
        break;
      case Kind::Gem5Detailed: {
        std::vector<CpuConfig> cores = CpuConfig::gem5Cores();
        std::vector<const Workload *> subset = gem5Subset();
        for (size_t wi = 0; wi < subset.size(); wi++) {
            const Workload &w = *subset[wi];
            for (size_t ci = 0; ci < cores.size(); ci++) {
                for (u32 smi = 0; smi < 2; smi++) {
                    RunConfig rc = pinnedConfig(kind, seed);
                    rc.cpu = cores[ci];
                    rc.size = w.gem5Size;
                    rc.smiExtension = smi != 0;
                    bool traced =
                        (smi == 0 && ci == wi % cores.size())
                        || (smi == 1 && ci == (wi + 2) % cores.size());
                    add(w,
                        w.name + "/" + cores[ci].name
                            + (smi != 0 ? "/smi" : ""),
                        rc, traced);
                }
            }
        }
        break;
      }
    }
    // The traced run drives the harness layer on every traced
    // check-removal unit, and once (first traced unit) elsewhere.
    bool first = true;
    for (Unit &u : units) {
        if (!u.traced)
            continue;
        u.harness = kind == Kind::CheckRemoval || first;
        first = false;
    }
    return units;
}

// ---------------------------------------------------------------------
// Set-up: the independent oracle
// ---------------------------------------------------------------------

struct Oracle
{
    std::string checksum;
    u64 codeInsts = 0;    //!< static insts of the oracle run (JIT only)
};

/**
 * Oracle checksums, one per (workload, size). JIT-tier cells are
 * checked against an interpreter-only run, never against
 * referenceChecksum (itself a JIT run); interp-oracle cells are checked
 * against a JIT run with every check in place.
 */
struct Setup
{
    std::vector<Unit> units;
    std::map<std::string, Oracle> oracles;
    std::string error;
};

Setup
runSetup(Kind kind, u64 seed, bool wrong_reference)
{
    Setup s;
    s.units = makeUnits(kind, seed);
    for (const Unit &u : s.units) {
        std::string key = u.oracleKey();
        if (s.oracles.count(key) != 0)
            continue;
        RunConfig rc = pinnedConfig(kind, seed);
        rc.size = u.rc.size;
        rc.enableOptimization = kind == Kind::InterpOracle;
        g_cpus.next();
        RunOutcome o = runWorkload(*u.w, rc);
        if (!o.completed) {
            s.error = "oracle run failed for " + key + ": " + o.error;
            return s;
        }
        Oracle &oracle = s.oracles[key];
        oracle.checksum = o.checksum + (wrong_reference ? "#wrong" : "");
        oracle.codeInsts = o.staticInstructions;
    }
    return s;
}

// ---------------------------------------------------------------------
// Timed cells
// ---------------------------------------------------------------------

struct CellResult
{
    u32 unit = 0;
    u32 sub = 0;              //!< position inside the unit
    std::string key;          //!< identity for the determinism check
    double ms = 0.0;
    bool ok = false;
    double cycles = 0.0;      //!< steady-state modeled cycles/iteration
    u64 insts = 0;            //!< static insts over the run's code
};

/** Mean modeled cycles per iteration after the fixed warm-up. */
double
steadyCycles(const RunOutcome &o)
{
    if (o.iterationCycles.size() <= kWarmup)
        return 0.0;
    u64 sum = 0;
    for (size_t i = kWarmup; i < o.iterationCycles.size(); i++)
        sum += o.iterationCycles[i];
    return static_cast<double>(sum)
           / static_cast<double>(o.iterationCycles.size() - kWarmup);
}

std::string
removalSetString(const std::array<bool, kNumGroups> &set)
{
    std::string s;
    for (bool b : set)
        s += b ? '1' : '0';
    return s;
}

/** Per-(workload, size) count of harness calls made in this process,
 *  so every findSafeRemovalSet / referenceChecksum key is fresh. */
u32
nextHarnessUse(std::map<std::string, u32> &uses, const Unit &u)
{
    return uses[u.oracleKey()]++;
}

CellResult
timedRun(const Unit &u, u32 sub, const RunConfig &rc,
         const std::string &oracle, const std::string &key)
{
    CellResult r;
    r.unit = u.index;
    r.sub = sub;
    r.key = key;
    auto t0 = Clock::now();
    RunOutcome o = runWorkload(*u.w, rc, &oracle);
    r.ms = msSince(t0);
    r.ok = o.valid;
    r.cycles = steadyCycles(o);
    r.insts = o.staticInstructions;
    return r;
}

void
runUnit(Kind kind, const Unit &u, const Oracle &oracle,
        std::map<std::string, u32> &uses, std::vector<CellResult> &out)
{
    g_cpus.next();
    if (kind != Kind::CheckRemoval) {
        out.push_back(timedRun(u, 0, u.rc, oracle.checksum, u.label));
        return;
    }
    // §III-B.2: an uncached safe-set search, then the run with the safe
    // set removed and a static-elim run. The search counts as valid
    // when the set it returns keeps the program correct.
    u32 probes = kProbeBase + 2 * nextHarnessUse(uses, u);
    CellResult search;
    search.unit = u.index;
    search.sub = 0;
    std::array<bool, kNumGroups> set{};
    bool searched = true;
    auto t0 = Clock::now();
    try {
        set = findSafeRemovalSet(*u.w, u.rc, probes);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vbench: %s: %s\n", u.label.c_str(), e.what());
        searched = false;
    }
    search.ms = msSince(t0);
    std::string set_key = u.label + "/" + removalSetString(set);
    search.key = set_key + "/search";

    RunConfig removed = u.rc;
    removed.removeChecks = set;
    CellResult safe = timedRun(u, 1, removed, oracle.checksum,
                               set_key + "/safe");
    RunConfig elim = u.rc;
    elim.staticElim = true;
    CellResult sound = timedRun(u, 2, elim, oracle.checksum,
                                u.label + "/static-elim");
    search.ok = searched && safe.ok;
    out.push_back(search);
    out.push_back(safe);
    out.push_back(sound);
}

u64
harnessCacheHits()
{
    return par::harnessCounter(par::HarnessCounter::RefCacheHits)
           + par::harnessCounter(par::HarnessCounter::SafeSetCacheHits);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Linear-interpolated quantile (Python's statistics "inclusive"). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
};

std::string
fmtNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(const std::vector<Metric> &report,
            const std::vector<std::string> &json_names, bool correct,
            size_t attempted, size_t failed)
{
    for (const Metric &m : report)
        std::printf("  %-28s %18.6f %-8s (n=%zu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : json_names) {
        for (const Metric &m : report) {
            if (m.name != name)
                continue;
            if (!first)
                json += ", ";
            first = false;
            json += "\"" + m.name + "\": {\"value\": " + fmtNumber(m.value)
                    + ", \"unit\": \"" + m.unit + "\"}";
        }
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// The untraced run: end-to-end metrics
// ---------------------------------------------------------------------

int
runTimed(Kind kind, u64 seed, double seconds, bool wrong_reference)
{
    auto t_start = Clock::now();
    std::vector<double> setup_s;
    Setup setup;
    std::map<std::string, Oracle> first_oracles;
    bool setup_stable = true;
    for (u32 rep = 0; rep < kMaxSetupRepeats; rep++) {
        if (rep >= kMinSetupRepeats
            && msSince(t_start) / 1000.0 >= kSetupSeconds)
            break;
        auto t0 = Clock::now();
        setup = runSetup(kind, seed, wrong_reference);
        setup_s.push_back(msSince(t0) / 1000.0);
        if (!setup.error.empty()) {
            std::fprintf(stderr, "vbench: %s\n", setup.error.c_str());
            return 1;
        }
        if (rep == 0) {
            first_oracles = setup.oracles;
        } else {
            for (const auto &[key, o] : setup.oracles)
                setup_stable &= first_oracles[key].checksum == o.checksum
                                && first_oracles[key].codeInsts
                                       == o.codeInsts;
        }
    }
    double to_first_cell_s = msSince(t_start) / 1000.0;

    // Timed section: whole passes over every unit, each in a fresh
    // seeded order, so every run measures the same mix of cells. The
    // first pass's duration sets the pass count that fills `seconds`
    // (at least kMinCells cells).
    std::mt19937_64 rng(seed);
    std::vector<u32> order(setup.units.size());
    std::iota(order.begin(), order.end(), 0u);
    std::map<std::string, u32> uses;
    std::vector<CellResult> cells;
    u64 hits_before = harnessCacheHits();
    auto t0 = Clock::now();
    u32 passes = 1;
    for (u32 pass = 0; pass < passes; pass++) {
        std::shuffle(order.begin(), order.end(), rng);
        for (u32 idx : order) {
            const Unit &u = setup.units[idx];
            runUnit(kind, u, setup.oracles.at(u.oracleKey()), uses, cells);
        }
        if (pass == 0) {
            double pass_s = msSince(t0) / 1000.0;
            size_t per_pass = cells.size();
            passes = static_cast<u32>(std::max(
                std::lround(seconds / pass_s),
                std::lround(std::ceil(static_cast<double>(kMinCells)
                                      / static_cast<double>(per_pass)))));
            passes = std::max(passes, 1u);
        }
    }
    std::vector<CellResult> first_pass(
        cells.begin(), cells.begin() + cells.size() / passes);
    double wall_s = msSince(t0) / 1000.0;
    u64 cache_hits = harnessCacheHits() - hits_before;

    // Deterministic counts come from the first pass in canonical
    // order; every later run of an identical cell must repeat them.
    std::sort(first_pass.begin(), first_pass.end(),
              [](const CellResult &a, const CellResult &b) {
                  return a.unit != b.unit ? a.unit < b.unit
                                          : a.sub < b.sub;
              });
    std::map<std::string, const CellResult *> by_key;
    double log_sum = 0.0;
    size_t log_n = 0;
    u64 code_insts = 0;
    for (const CellResult &c : first_pass) {
        by_key[c.key] = &c;
        if (c.ok && c.cycles > 0.0) {
            log_sum += std::log(c.cycles);
            log_n++;
        }
        code_insts += c.insts;
    }
    if (kind == Kind::InterpOracle) {
        // Interpreter cells emit no code: count the JIT baseline's.
        for (const auto &[key, o] : setup.oracles)
            code_insts += o.codeInsts;
    }
    bool deterministic = true;
    for (const CellResult &c : cells) {
        auto it = by_key.find(c.key);
        if (it != by_key.end()
            && (it->second->cycles != c.cycles
                || it->second->insts != c.insts)) {
            std::fprintf(stderr, "vbench: %s not deterministic\n",
                         c.key.c_str());
            deterministic = false;
        }
    }

    size_t failed = 0;
    std::vector<double> ms;
    for (const CellResult &c : cells) {
        failed += c.ok ? 0 : 1;
        ms.push_back(c.ms);
    }
    size_t attempted = cells.size();
    double valid = static_cast<double>(attempted - failed);

    std::printf("vbench %s seed=%llu cells=%zu passes=%u timed=%.3fs "
                "to_first_cell=%.3fs\n",
                kKindNames[static_cast<int>(kind)],
                static_cast<unsigned long long>(seed), attempted, passes,
                wall_s, to_first_cell_s);
    std::vector<Metric> report = {
        {"setup_s", quantile(setup_s, 0.5), "s", setup_s.size()},
        {"cells_per_s", valid / wall_s, "1/s", attempted},
        {"cell_ms_p50", quantile(ms, 0.5), "ms", attempted},
        {"cell_ms_p90", quantile(ms, 0.9), "ms", attempted},
        {"failed_frac", static_cast<double>(failed) / attempted, "ratio",
         attempted},
        {"valid_frac", valid / attempted, "ratio", attempted},
        {"modeled_cycles_geomean",
         log_n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(log_n)),
         "cycles", log_n},
        {"code_insts", static_cast<double>(code_insts), "insts",
         first_pass.size()},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
        {"harness.cache_hits", static_cast<double>(cache_hits), "count",
         1},
    };
    if (!setup_stable)
        std::fprintf(stderr, "vbench: set-up repeats disagree\n");
    if (cache_hits != 0)
        std::fprintf(stderr,
                     "vbench: %llu harness cache hits in the timed "
                     "section\n",
                     static_cast<unsigned long long>(cache_hits));
    bool correct = failed == 0 && deterministic && setup_stable
                   && cache_hits == 0;
    printResult(report,
                {"setup_s", "cells_per_s", "cell_ms_p50", "cell_ms_p90",
                 "valid_frac", "modeled_cycles_geomean", "code_insts",
                 "peak_rss_mb"},
                correct, attempted, failed);
    return correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// The traced run: per-layer metrics
// ---------------------------------------------------------------------

enum class Sp : u8
{
    Cell,
    Parse,
    Compile,
    EngineNew,
    Load,
    InterpCall,
    IrBuild,
    IrPasses,
    Codegen,
    Warmup,
    SimCall,
    Predecode,
    TimingNew,
    Reference,
    SafeSet,
    NumSpans,
};

constexpr size_t kNumSpans = static_cast<size_t>(Sp::NumSpans);

const char *const kSpanNames[kNumSpans] = {
    "cell",           "frontend.parse", "bytecode.compile",
    "runtime.engine_new", "runtime.load", "interp.call",
    "ir.build",       "ir.passes",      "backend.codegen",
    "runtime.warmup", "sim.call",       "sim.predecode",
    "sim.timing_new", "harness.reference", "harness.safe_set",
};

struct Span
{
    Sp kind = Sp::Cell;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    u32 cell = 0;
};

/** In-memory span log; with `on` false every call is a no-op. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch(epoch) {}

    bool on = false;
    u32 cell = 0;                 //!< id stamped on new spans
    std::vector<Span> spans;

    int
    open(Sp kind)
    {
        if (!on)
            return -1;
        Span s;
        s.kind = kind;
        s.parent = stack.empty() ? -1 : stack.back();
        s.cell = cell;
        spans.push_back(s);
        int idx = static_cast<int>(spans.size()) - 1;
        stack.push_back(idx);
        spans.back().startUs = nowUs();
        return idx;
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        spans[idx].endUs = nowUs();
        stack.pop_back();
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now()
                                                         - epoch)
            .count();
    }

    Clock::time_point epoch;
    std::vector<int> stack;
};

struct ScopedSpan
{
    ScopedSpan(SpanLog &log, Sp kind) : log(log), idx(log.open(kind)) {}
    ~ScopedSpan() { log.close(idx); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    SpanLog &log;
    int idx;
};

/** Work counts read at layer boundaries (engine counts from
 *  Engine::trace.counters). */
struct LayerCounts
{
    u64 sourceBytes = 0;
    u64 bytecodeOps = 0;
    u64 compilations = 0;
    u64 deopts = 0;
    u64 gcCycles = 0;
    u64 bytecodes = 0;
    u64 irChecks = 0;
    u64 irProven = 0;
    u64 insts = 0;
    u64 spills = 0;
    u64 simInsts = 0;
    u64 samples = 0;

    bool operator==(const LayerCounts &) const = default;

    LayerCounts &
    operator+=(const LayerCounts &o)
    {
        sourceBytes += o.sourceBytes;
        bytecodeOps += o.bytecodeOps;
        compilations += o.compilations;
        deopts += o.deopts;
        gcCycles += o.gcCycles;
        bytecodes += o.bytecodes;
        irChecks += o.irChecks;
        irProven += o.irProven;
        insts += o.insts;
        spills += o.spills;
        simInsts += o.simInsts;
        samples += o.samples;
        return *this;
    }
};

/** Engine configuration of the chain's optimizing half. */
RunConfig
jitConfig(const Unit &u)
{
    RunConfig rc = u.rc;
    rc.enableOptimization = true;
    return rc;
}

/**
 * One traced chain over unit @p u: every layer driven through its own
 * public entry point. Both engines run the cell's bench() calls and
 * their verify() results are checked against the oracle.
 */
bool
runChain(const Unit &u, const Oracle &oracle, SpanLog &log,
         std::map<std::string, u32> &uses, LayerCounts &c)
{
    ScopedSpan root(log, Sp::Cell);
    bool ok = true;
    const std::string source = instantiate(*u.w, u.size());
    c.sourceBytes += source.size();

    ProgramSource prog;
    {
        ScopedSpan s(log, Sp::Parse);
        prog = parseProgram(source);
    }
    {
        VMContext ctx(kCompileHeap);
        GlobalRegistry globals(ctx);
        FunctionTable functions;
        {
            ScopedSpan s(log, Sp::Compile);
            BytecodeCompiler(ctx, globals, functions).compileProgram(prog);
        }
        for (u32 id = 0; id < functions.count(); id++)
            c.bytecodeOps += functions.at(id).bytecode.size();
    }

    // Interpreter half: optimization off.
    RunConfig irc = u.rc;
    irc.enableOptimization = false;
    irc.samplerEnabled = false;
    const RunConfig jrc = jitConfig(u);
    const EngineConfig jcfg = engineConfigFor(jrc);
    std::unique_ptr<Engine> ei;
    {
        ScopedSpan s(log, Sp::EngineNew);
        ei = std::make_unique<Engine>(engineConfigFor(irc));
    }
    {
        ScopedSpan s(log, Sp::Load);
        ei->loadProgram(source);
    }
    u64 bc0 = ei->interpreter->bytecodesExecuted;
    {
        ScopedSpan s(log, Sp::InterpCall);
        for (u32 i = 0; i < u.rc.iterations; i++)
            ei->call("bench");
    }
    c.bytecodes += ei->interpreter->bytecodesExecuted - bc0;
    ok &= ei->vm.display(ei->call("verify")) == oracle.checksum;
    c.gcCycles += ei->trace.counters.get(TraceCounter::GcCycles);

    // Optimizing pipeline on the interpreter-warmed functions, with
    // the pass and codegen settings Engine::compileFunction derives.
    CompilerEnv env{ei->vm, ei->globals, ei->functions};
    PassConfig passes = jcfg.passes;
    passes.smiLoadFusion = jcfg.smiLoadExtension;
    CodegenConfig cg;
    cg.flavour = jcfg.isa;
    cg.removeDeoptBranches = jcfg.removeDeoptBranches;
    cg.smiExtension = jcfg.smiLoadExtension;
    cg.mapCheckExtension = jcfg.mapCheckExtension;
    cg.maxGprs = jcfg.maxGprs;
    cg.maxFprs = jcfg.maxFprs;
    for (u32 id = 0; id < ei->functions.count(); id++) {
        FunctionInfo &fn = ei->functions.at(id);
        if (!jcfg.tiering.shouldOptimize(fn))
            continue;
        std::optional<Graph> graph;
        {
            ScopedSpan s(log, Sp::IrBuild);
            graph = buildGraph(env, fn);
        }
        if (!graph.has_value())
            continue;
        for (const IrNode &n : graph->nodes)
            c.irChecks += n.isCheck() ? 1 : 0;
        PassStats stats;
        {
            ScopedSpan s(log, Sp::IrPasses);
            stats = runPasses(*graph, passes);
        }
        c.irProven += stats.proof.totalProven();
        std::unique_ptr<CodeObject> code;
        {
            ScopedSpan s(log, Sp::Codegen);
            code = generateCode(env, *graph, cg);
        }
        c.insts += code->code.size();
        c.spills += code->raStats.spillStores;
    }
    ei.reset();

    // JIT half: warm-up, then the steady-state calls on the simulator.
    std::unique_ptr<Engine> ej;
    {
        ScopedSpan s(log, Sp::EngineNew);
        ej = std::make_unique<Engine>(jcfg);
    }
    {
        ScopedSpan s(log, Sp::Load);
        ej->loadProgram(source);
    }
    {
        ScopedSpan s(log, Sp::Warmup);
        for (u32 i = 0; i < kWarmup; i++)
            ej->call("bench");
    }
    u64 insts0 = ej->timing->stats.instructions;
    {
        ScopedSpan s(log, Sp::SimCall);
        for (u32 i = kWarmup; i < u.rc.iterations; i++)
            ej->call("bench");
    }
    c.simInsts += ej->timing->stats.instructions - insts0;
    ok &= ej->vm.display(ej->call("verify")) == oracle.checksum;
    c.compilations += ej->trace.counters.get(TraceCounter::Compilations);
    c.deopts += ej->trace.counters.totalDeopts();
    c.gcCycles += ej->trace.counters.get(TraceCounter::GcCycles);
    c.samples += ej->sampler.totalSamples;
    {
        ScopedSpan s(log, Sp::Predecode);
        for (const auto &code : ej->codeObjects)
            ok &= buildPredecoded(*code).ops.size() == code->code.size();
    }
    {
        ScopedSpan s(log, Sp::TimingNew);
        ok &= makeTimingModel(jcfg.cpu) != nullptr;
    }
    ej.reset();

    if (u.harness) {
        u32 k = nextHarnessUse(uses, u);
        {
            ScopedSpan s(log, Sp::Reference);
            ok &= !referenceChecksum(*u.w, u.size(), kProbeBase + 2 * k + 1)
                       .empty();
        }
        {
            ScopedSpan s(log, Sp::SafeSet);
            findSafeRemovalSet(*u.w, jrc, kProbeBase + 2 * k);
        }
    }
    return ok;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        f << (i == 0 ? "" : ",\n") << "{\"name\": \""
          << kSpanNames[static_cast<size_t>(s.kind)]
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << fmtNumber(s.startUs) << ", \"dur\": "
          << fmtNumber(s.endUs - s.startUs) << ", \"args\": {\"id\": " << i
          << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell
          << "}}";
    }
    f << "\n]}\n";
    if (!f)
        std::fprintf(stderr, "vbench: cannot write %s\n", path.c_str());
}

int
runTraced(Kind kind, u64 seed, bool wrong_reference,
          const std::string &trace_out)
{
    Setup setup = runSetup(kind, seed, wrong_reference);
    if (!setup.error.empty()) {
        std::fprintf(stderr, "vbench: %s\n", setup.error.c_str());
        return 1;
    }
    std::vector<const Unit *> traced;
    for (const Unit &u : setup.units)
        if (u.traced)
            traced.push_back(&u);
    std::mt19937_64 rng(seed);
    std::shuffle(traced.begin(), traced.end(), rng);

    SpanLog log(Clock::now());
    std::map<std::string, u32> uses;
    LayerCounts counts;
    size_t attempted = 0;
    size_t failed = 0;
    bool counts_repeat = true;
    double traced_ms = 0.0;
    double untraced_ms = 0.0;
    double sampler_on_ms = 0.0;
    double sampler_off_ms = 0.0;
    u64 hits_before = harnessCacheHits();

    std::printf("%-28s %12s %12s %12s %12s\n", "# cell", "untraced_ms",
                "traced_ms", "self_sum_ms", "unaccounted");
    for (size_t k = 0; k < traced.size(); k++) {
        const Unit &u = *traced[k];
        const Oracle &oracle = setup.oracles.at(u.oracleKey());
        // Both copies and both sampler cells run on one CPU; alternate
        // which copy runs first so drift cancels.
        g_cpus.next();
        double wall[2] = {0.0, 0.0};
        LayerCounts got[2];
        size_t first_span = 0;
        for (u32 step = 0; step < 2; step++) {
            u32 traced_copy = (k + step) % 2;
            log.on = traced_copy == 1;
            log.cell = static_cast<u32>(k);
            if (log.on)
                first_span = log.spans.size();
            bool ok = false;
            auto t0 = Clock::now();
            try {
                ok = runChain(u, oracle, log, uses, got[traced_copy]);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "vbench: %s: %s\n", u.label.c_str(),
                             e.what());
            }
            wall[traced_copy] = msSince(t0);
            attempted++;
            failed += ok ? 0 : 1;
        }
        log.on = false;
        counts_repeat &= got[0] == got[1];
        counts += got[1];
        untraced_ms += wall[0];
        traced_ms += wall[1];

        // The layers' self times sum to the cell span's direct children.
        double layer_self = 0.0;
        for (size_t i = first_span; i < log.spans.size(); i++) {
            const Span &s = log.spans[i];
            if (s.parent >= 0 && log.spans[s.parent].parent < 0)
                layer_self += (s.endUs - s.startUs) / 1e3;
        }
        std::printf("%-28s %12.3f %12.3f %12.3f %12.3f\n", u.label.c_str(),
                    wall[0], wall[1], layer_self, wall[0] - layer_self);

        // Sampler on vs off over the same cell (validated, untraced).
        for (u32 step = 0; step < 2; step++) {
            bool sampler = (k + step) % 2 == 0;
            RunConfig rc = jitConfig(u);
            rc.samplerEnabled = sampler;
            CellResult r = timedRun(u, 0, rc, oracle.checksum, u.label);
            (sampler ? sampler_on_ms : sampler_off_ms) += r.ms;
            attempted++;
            failed += r.ok ? 0 : 1;
        }
    }
    u64 cache_hits = harnessCacheHits() - hits_before;

    // Self time per span kind over every traced copy.
    std::array<double, kNumSpans> self_us{};
    for (const Span &s : log.spans) {
        double d = s.endUs - s.startUs;
        self_us[static_cast<size_t>(s.kind)] += d;
        if (s.parent >= 0)
            self_us[static_cast<size_t>(log.spans[s.parent].kind)] -= d;
    }
    auto ms = [&](Sp kind) {
        return self_us[static_cast<size_t>(kind)] / 1e3;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    double sum_layers = 0.0;
    for (size_t i = 1; i < kNumSpans; i++)
        sum_layers += self_us[i] / 1e3;

    size_t n = traced.size();
    size_t harness_calls = 0;
    for (const Span &s : log.spans)
        harness_calls += s.kind == Sp::SafeSet ? 1 : 0;
    std::vector<Metric> report = {
        {"frontend.parse_ms", ms(Sp::Parse), "ms", n},
        {"frontend.source_bytes", double(counts.sourceBytes), "bytes", n},
        {"bytecode.compile_ms", ms(Sp::Compile), "ms", n},
        {"bytecode.ops", double(counts.bytecodeOps), "ops", n},
        {"runtime.engine_new_ms", ms(Sp::EngineNew), "ms", 2 * n},
        {"runtime.load_ms", ms(Sp::Load), "ms", 2 * n},
        {"runtime.warmup_ms", ms(Sp::Warmup), "ms", n},
        {"runtime.compilations", double(counts.compilations), "count", n},
        {"runtime.deopts", double(counts.deopts), "count", n},
        {"vm.gc_cycles", double(counts.gcCycles), "count", 2 * n},
        {"interp.call_ms", ms(Sp::InterpCall), "ms", n},
        {"interp.bytecodes", double(counts.bytecodes), "ops", n},
        {"interp.ns_per_bytecode",
         ratio(ms(Sp::InterpCall) * 1e6, double(counts.bytecodes)), "ns",
         n},
        {"ir.build_ms", ms(Sp::IrBuild), "ms", n},
        {"ir.passes_ms", ms(Sp::IrPasses), "ms", n},
        {"ir.checks", double(counts.irChecks), "count", n},
        {"ir.checks_proven", double(counts.irProven), "count", n},
        {"backend.codegen_ms", ms(Sp::Codegen), "ms", n},
        {"backend.insts", double(counts.insts), "insts", n},
        {"backend.spills", double(counts.spills), "count", n},
        {"sim.call_ms", ms(Sp::SimCall), "ms", n},
        {"sim.insts", double(counts.simInsts), "insts", n},
        {"sim.ns_per_inst",
         ratio(ms(Sp::SimCall) * 1e6, double(counts.simInsts)), "ns", n},
        {"sim.predecode_ms", ms(Sp::Predecode), "ms", n},
        {"sim.timing_new_us", ms(Sp::TimingNew) * 1e3, "us", n},
        {"profiler.samples", double(counts.samples), "count", n},
        {"profiler.overhead_frac",
         ratio(sampler_on_ms - sampler_off_ms, sampler_off_ms), "ratio",
         n},
        {"harness.safe_set_ms", ms(Sp::SafeSet), "ms", harness_calls},
        {"harness.reference_ms", ms(Sp::Reference), "ms", harness_calls},
        {"harness.cache_hits", double(cache_hits), "count", 1},
        {"bench.unaccounted_ms", untraced_ms - sum_layers, "ms", n},
        {"bench.trace_overhead_frac",
         ratio(traced_ms - untraced_ms, untraced_ms), "ratio", n},
    };
    std::printf("vbench %s traced seed=%llu cells=%zu spans=%zu "
                "untraced=%.3fms traced=%.3fms\n",
                kKindNames[static_cast<int>(kind)],
                static_cast<unsigned long long>(seed), n, log.spans.size(),
                untraced_ms, traced_ms);
    if (!trace_out.empty())
        writeSpans(trace_out, log.spans);
    if (!counts_repeat)
        std::fprintf(stderr, "vbench: traced and untraced chains counted "
                             "different work\n");
    if (cache_hits != 0)
        std::fprintf(stderr, "vbench: harness cache hits in the traced "
                             "run\n");
    bool correct = failed == 0 && counts_repeat && cache_hits == 0;
    std::vector<std::string> names;
    for (const Metric &m : report)
        names.push_back(m.name);
    printResult(report, names, correct, attempted, failed);
    return correct ? 0 : 1;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "vbench: %s\n"
                 "usage: vbench --workload jit-steady|interp-oracle|"
                 "check-removal|gem5-detailed\n"
                 "              --seed N --seconds S --trace 0|1\n"
                 "              [--trace-out FILE] [--wrong-reference]\n",
                 msg);
    std::exit(2);
}

bool
parseU64(const char *s, u64 &out)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (s[0] == '\0' || s[0] == '-' || *end != '\0' || errno != 0)
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    int kind = -1;
    u64 seed = 0;
    u64 seconds = 0;
    u64 trace = 2;
    bool have_seed = false;
    std::string trace_out;
    bool wrong_reference = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--wrong-reference") {
            wrong_reference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            for (int k = 0; k < static_cast<int>(std::size(kKindNames)); k++)
                if (std::strcmp(v, kKindNames[k]) == 0)
                    kind = k;
            if (kind < 0)
                usage("unknown workload");
        } else if (a == "--seed") {
            have_seed = parseU64(v, seed);
            if (!have_seed)
                usage("bad --seed");
        } else if (a == "--seconds") {
            if (!parseU64(v, seconds) || seconds == 0 || seconds > 3600)
                usage("bad --seconds");
        } else if (a == "--trace") {
            if (!parseU64(v, trace) || trace > 1)
                usage("bad --trace");
        } else if (a == "--trace-out") {
            trace_out = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (kind < 0 || !have_seed || seconds == 0 || trace > 1)
        usage("--workload, --seed, --seconds and --trace are required");
    for (const char *name : kRefusedEnv) {
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "vbench: refusing to run with %s set: it changes "
                         "the program under test\n",
                         name);
            return 2;
        }
    }
    par::PersistentCache::instance().setDiskEnabled(false);

    Kind k = static_cast<Kind>(kind);
    return trace == 1
        ? runTraced(k, seed, wrong_reference, trace_out)
        : runTimed(k, seed, static_cast<double>(seconds), wrong_reference);
}
