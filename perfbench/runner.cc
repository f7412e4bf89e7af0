/**
 * @file
 * perfbench_runner: the measuring half of the FlashSim host-speed
 * benchmark (run.py is the other half). Each invocation does one thing
 * and prints one JSON object on stdout:
 *
 *   perfbench_runner run --app mp3d|lu|radix --machine flash|ideal
 *                        --cache BYTES [--seed N] [--verify] [--trace]
 *                        [--calibrate] [--setup-only]
 *       One simulation at the paper problem size on 16 processors,
 *       single-threaded, timed around the public calls
 *       Machine(cfg) -> Workload::setup -> Machine::run ->
 *       Machine::drain -> summarize / stateDigest. Prints the host
 *       times, the simulated-result signature and the per-layer
 *       counters. --seed N is added to the application's paper seed
 *       (mp3d and radix; lu has no random input). --verify turns on
 *       the coherence oracle and watchdog (reference runs only).
 *       --trace adds the span list. --calibrate times a fixed host
 *       kernel right before and right after (see calibrationSeconds).
 *       --setup-only stops after setup.
 *
 *   perfbench_runner probe [--quick]
 *       Per-layer microprobes through each layer's public entry point;
 *       prints ns per operation, bracketed by the calibration kernel.
 *
 *   perfbench_runner info
 *       Build type and compiler of this binary.
 */

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "apps/lu.hh"
#include "apps/mp3d.hh"
#include "apps/radix.hh"
#include "machine/machine.hh"
#include "machine/report.hh"
#include "network/mesh.hh"
#include "ppisa/ppsim.hh"
#include "protocol/directory.hh"
#include "protocol/message.hh"
#include "protocol/pp_programs.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace flashsim;
using Clock = std::chrono::steady_clock;

constexpr int kProcs = 16;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "perfbench_runner: %s\n", why);
    std::exit(1);
}

/** Peak resident memory since process start or the last
 *  resetPeakRss(), in MB (Linux VmHWM). */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    char line[256];
    double kb = -1;
    while (f != nullptr && std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    }
    if (f != nullptr)
        std::fclose(f);
    if (kb < 0)
        usage("cannot read VmHWM from /proc/self/status");
    return kb / 1024.0;
}

/** Restart the peak-resident-memory mark at the current size. */
void
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr || std::fputs("5", f) < 0 || std::fclose(f) != 0)
        usage("cannot reset VmHWM through /proc/self/clear_refs");
}

/** Flat JSON object writer: keys in insertion order, numbers exact. */
class Json
{
  public:
    Json &
    num(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    Json &
    u64(const char *key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Json &
    str(const char *key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }
    Json &
    raw(const char *key, const std::string &v)
    {
        out_ += out_.empty() ? "{" : ", ";
        out_ += "\"";
        out_ += key;
        out_ += "\": ";
        out_ += v;
        return *this;
    }
    std::string
    done() const
    {
        return out_.empty() ? "{}" : out_ + "}";
    }

  private:
    std::string out_;
};

// -- host calibration -----------------------------------------------------------

/**
 * Host seconds of a fixed kernel that uses no simulator code but looks
 * like its inner loop: pop the earliest of 4096 pending "events" from a
 * binary heap, touch two words of a 16 MB table (about a run's
 * footprint), push a successor. Timed next to a run, it tracks how fast
 * the shared host is running at that moment (see run.py). The table is
 * mapped directly so the kernel leaves malloc's state as it found it.
 */
double
calibrationSeconds()
{
    constexpr std::size_t kTable = std::size_t{1} << 21;
    constexpr std::size_t kBytes = kTable * sizeof(std::uint64_t);
    constexpr int kSteps = 1 << 20;
    void *mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        usage("calibration kernel: mmap failed");
    auto *table = static_cast<std::uint64_t *>(mem);
    for (std::size_t i = 0; i < kTable; ++i)
        table[i] = i;

    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t k = 0; k < 4096; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push({x % 1024, k});
    }
    const Clock::time_point a = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
        const Event e = heap.top();
        heap.pop();
        const std::uint64_t h = (e.second * 0x9e3779b97f4a7c15ull) ^ e.first;
        const std::size_t slot = h & (kTable - 1);
        table[slot] += e.first;
        const std::uint64_t v = table[(slot * 31 + 7) & (kTable - 1)];
        heap.push({e.first + 1 + ((v ^ h) & 63), e.second});
    }
    const double t = seconds(a, Clock::now());
    munmap(mem, kBytes);
    if (heap.top().first == 0)
        usage("calibration kernel went wrong");
    return t;
}

// -- run ----------------------------------------------------------------------

struct RunArgs
{
    std::string app;
    bool ideal = false;
    std::uint32_t cacheBytes = 1u << 20;
    std::uint64_t seed = 0;
    bool verify = false;
    bool trace = false;
    bool calibrate = false;
    bool setupOnly = false;
};

std::unique_ptr<apps::Workload>
makeApp(const RunArgs &a)
{
    if (a.app == "mp3d") {
        apps::Mp3dParams p = apps::Mp3dParams::paper();
        p.seed += a.seed;
        return std::make_unique<apps::Mp3d>(p);
    }
    if (a.app == "radix") {
        apps::RadixParams p = apps::RadixParams::paper();
        p.seed += a.seed;
        return std::make_unique<apps::Radix>(p);
    }
    if (a.app == "lu")
        return std::make_unique<apps::Lu>(apps::LuParams::paper());
    usage("--app must be mp3d, lu or radix");
}

/** A named host-time interval, recorded in memory (--trace). */
struct Span
{
    const char *name;
    Clock::time_point start;
    Clock::time_point end;
};

int
cmdRun(const RunArgs &a)
{
    machine::MachineConfig cfg =
        a.ideal ? machine::MachineConfig::ideal(kProcs, a.cacheBytes)
                : machine::MachineConfig::flash(kProcs, a.cacheBytes);
    if (a.verify) {
        cfg.magic.verify.oracle = true;
        cfg.magic.verify.watchdog = true;
    }
    std::unique_ptr<apps::Workload> w = makeApp(a);
    const bool calibrate = a.calibrate && !a.setupOnly;
    // A fresh process runs its first few hundred ms slow (the host CPU
    // comes up from idle), so the first kernel is a discarded warm-up.
    if (calibrate)
        calibrationSeconds();
    const double calBefore = calibrate ? calibrationSeconds() : 0.0;
    resetPeakRss(); // peak_rss_mb covers the simulation only

    // Untraced runs read the clock at the same points; --trace only
    // adds keeping and printing the spans.
    const Clock::time_point t0 = Clock::now();
    machine::Machine m(cfg);
    const Clock::time_point t1 = Clock::now();
    w->setup(m);
    const Clock::time_point t2 = Clock::now();

    Json j;
    j.num("construct_s", seconds(t0, t1))
        .num("app_setup_s", seconds(t1, t2))
        .num("setup_s", seconds(t0, t2));
    if (a.setupOnly) {
        j.num("peak_rss_mb", peakRssMb());
        std::printf("%s\n", j.done().c_str());
        return 0;
    }

    const double c2 = cpuSeconds();
    const Tick exec = m.run(w->body());
    const Clock::time_point t3 = Clock::now();
    m.drain();
    const Clock::time_point t4 = Clock::now();
    const double c4 = cpuSeconds();
    const machine::Summary s = machine::summarize(m);
    const Clock::time_point t5 = Clock::now();
    const std::uint64_t digest = m.stateDigest();
    const Clock::time_point t6 = Clock::now();
    const double rss = peakRssMb(); // before the kernel's own allocations
    const double calAfter = calibrate ? calibrationSeconds() : 0.0;

    std::vector<Span> spans;
    if (a.trace)
        spans = {{"machine.construct", t0, t1}, {"apps.setup", t1, t2},
                 {"machine.run", t2, t3},       {"machine.drain", t3, t4},
                 {"machine.summarize", t4, t5}, {"machine.digest", t5, t6}};

    j.num("run_s", seconds(t2, t4))
        .num("run_cpu_s", c4 - c2)
        .num("drain_s", seconds(t3, t4))
        .num("summarize_s", seconds(t4, t6))
        .num("peak_rss_mb", rss);
    if (calibrate)
        j.num("cal_before_s", calBefore).num("cal_after_s", calAfter);

    // The simulated-result signature: every integer the run produces
    // that a host-speed change must leave bit-identical.
    ppisa::RunStats pp;
    Counter writebacks = 0, hints = 0, nackRetries = 0;
    for (int i = 0; i < m.numProcs(); ++i) {
        const machine::Node &n = m.node(i);
        if (const magic::PpTimingModel *pm = n.magic().ppModel())
            pp.accumulate(pm->runStats());
        writebacks += n.cache().writebacks;
        hints += n.cache().replaceHints;
        nackRetries += n.cache().nackRetries;
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "\"0x%016" PRIx64 "\"", digest);
    Json sig;
    sig.u64("exec_cycles", exec)
        .u64("cache_reads", s.cacheReads)
        .u64("cache_writes", s.cacheWrites)
        .u64("background_refs", s.backgroundRefs)
        .u64("read_misses", s.readMisses)
        .u64("write_misses", s.writeMisses)
        .u64("handler_invocations", s.handlerInvocations)
        .u64("spec_issued", s.specIssued)
        .u64("mdc_protocol_mem_ops", s.mdcProtocolMemOps)
        .u64("nacks_sent", s.nacksSent)
        .u64("wire_drops", s.wireDrops)
        .u64("wire_dups", s.wireDups)
        .u64("wire_reorders", s.wireReorders)
        .u64("wire_copies", s.wireCopies)
        .u64("wire_retransmits", s.wireRetransmits)
        .u64("wire_assured", s.wireAssured)
        .u64("wire_acks", s.wireAcks)
        .u64("wire_dups_filtered", s.wireDupsFiltered)
        .u64("wire_reorders_accepted", s.wireReordersAccepted)
        .u64("req_drops_injected", s.reqDropsInjected)
        .u64("timeout_retries", s.timeoutRetries)
        .u64("late_fills", s.lateFills)
        .u64("degraded_txns", s.degradedTxns)
        .u64("degraded_resumes", s.degradedResumes)
        .u64("pp_cycles", pp.cycles)
        .u64("pp_pairs", pp.pairs)
        .u64("pp_instrs", pp.instrs)
        .u64("pp_specials", pp.specials)
        .u64("pp_alu_branch", pp.aluBranch)
        .u64("pp_mem_stall", pp.memStall)
        .u64("pp_invocations", pp.invocations)
        .u64("net_messages", m.network().messages())
        .u64("net_data_messages", m.network().dataMessages())
        .raw("state_digest", hex);
    j.raw("signature", sig.done());

    Json layers;
    layers.u64("writebacks", writebacks)
        .u64("replace_hints", hints)
        .u64("nack_retries", nackRetries)
        .num("miss_rate", s.missRate)
        .num("handlers_per_miss", s.handlersPerMiss)
        .num("pp_occupancy", s.avgPpOcc)
        .num("spec_useless_frac", s.specUselessFrac)
        .num("mdc_miss_rate", s.mdcMissRate)
        .num("mem_occupancy", s.avgMemOcc)
        .num("mem_max_occupancy", s.maxMemOcc);
    j.raw("layers", layers.done());

    if (const verify::Sentinel *sen = m.sentinel())
        j.u64("violations", sen->violations()).u64("trips", sen->trips());

    if (a.trace) {
        std::string list = "[";
        for (const Span &sp : spans) {
            Json e;
            e.str("name", sp.name)
                .num("start_s", seconds(t0, sp.start))
                .num("end_s", seconds(t0, sp.end));
            list += (list.size() > 1 ? ", " : "") + e.done();
        }
        j.raw("spans", list + "]");
    }
    std::printf("%s\n", j.done().c_str());
    return 0;
}

// -- probes ---------------------------------------------------------------------

/** Median of @p reps timings of @p body, in ns per operation. */
template <typename F>
double
medianNsPerOp(int reps, std::uint64_t ops, F &&body)
{
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point a = Clock::now();
        body();
        ns.push_back(seconds(a, Clock::now()) * 1e9 /
                     static_cast<double>(ops));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** Host seconds for a 1-node machine whose only processor sweeps a
 *  cache-resident array @p sweeps times (one read + one write per line
 *  per sweep) after one warming pass. */
double
tangoRunSeconds(int sweeps)
{
    constexpr int kLines = 256; // 32 KB: resident in the 1 MB cache
    machine::Machine m(machine::MachineConfig::flash(1));
    const Addr base = m.alloc(kLines * kLineSize, 0);
    auto body = [base, sweeps](tango::Env &env) -> tango::Task {
        for (int i = 0; i < kLines; ++i)
            co_await env.write(base + static_cast<Addr>(i) * kLineSize);
        for (int s = 0; s < sweeps; ++s) {
            for (int i = 0; i < kLines; ++i) {
                const Addr a = base + static_cast<Addr>(i) * kLineSize;
                co_await env.read(a);
                co_await env.write(a);
            }
        }
    };
    const Clock::time_point a = Clock::now();
    m.run(body);
    return seconds(a, Clock::now());
}

/** Cache-hit reference cost through Machine::run: the difference of two
 *  sweep counts cancels construction and the warming misses. */
double
probeTango(int reps, int sweeps)
{
    constexpr double kRefsPerSweep = 2.0 * 256;
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        const double lo = tangoRunSeconds(sweeps);
        const double hi = tangoRunSeconds(2 * sweeps);
        ns.push_back((hi - lo) * 1e9 / (kRefsPerSweep * sweeps));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** PpSim::run over the machine's handler programs, cycling through the
 *  handlers of read and write misses. */
double
probePpisa(int reps, int lines)
{
    using protocol::Message;
    using protocol::MsgType;
    machine::Machine m(machine::MachineConfig::flash(kProcs));
    const protocol::HandlerPrograms &programs = m.programs();
    struct Case
    {
        MsgType type;
        bool atHome;
        NodeId self;
        NodeId home;
    };
    const Case cases[] = {
        {MsgType::PiGet, false, 1, 0},   {MsgType::NetGet, true, 0, 0},
        {MsgType::NetPut, false, 1, 0},  {MsgType::PiGetx, true, 0, 0},
        {MsgType::PiGetx, false, 2, 0},  {MsgType::NetGetx, true, 0, 0},
        {MsgType::NetPutx, false, 2, 0}, {MsgType::PiGet, true, 0, 0},
    };
    const ppisa::PpSim sim;
    ppisa::RunStats stats;
    std::vector<ppisa::SentMessage> sent;
    Cycles sink = 0;
    const std::uint64_t ops =
        static_cast<std::uint64_t>(lines) * std::size(cases);
    const double ns = medianNsPerOp(reps, ops, [&] {
        ppisa::FlatPpMemory mem;
        for (int l = 0; l < lines; ++l) {
            for (const Case &c : cases) {
                Message msg;
                msg.type = c.type;
                msg.src = c.self == c.home ? 1 : c.self;
                msg.dest = c.self;
                msg.requester = msg.src;
                msg.addr = static_cast<Addr>(l) * kLineSize;
                ppisa::RegFile regs =
                    protocol::makeHandlerRegs(msg, c.self, c.home, false);
                sent.clear();
                sink += sim.run(programs.forMessage(c.type, c.atHome), regs,
                                mem, sent, stats);
            }
        }
    });
    if (sink == 0)
        usage("ppisa probe ran no cycles");
    return ns;
}

/** MeshNetwork::send plus delivery of each message at its destination. */
double
probeNetwork(int reps, int batches)
{
    constexpr int kBatch = 256;
    EventQueue eq;
    network::MeshNetwork net(eq, kProcs);
    std::uint64_t delivered = 0;
    for (int n = 0; n < kProcs; ++n)
        net.connect(static_cast<NodeId>(n),
                    [&delivered](const protocol::Message &) { ++delivered; });
    const std::uint64_t ops = static_cast<std::uint64_t>(batches) * kBatch;
    const double ns = medianNsPerOp(reps, ops, [&] {
        for (int b = 0; b < batches; ++b) {
            for (int k = 0; k < kBatch; ++k) {
                protocol::Message msg;
                msg.type = (k & 1) ? protocol::MsgType::NetPut
                                   : protocol::MsgType::NetGet;
                msg.src = static_cast<NodeId>(k % kProcs);
                msg.dest = static_cast<NodeId>((k * 7 + 3) % kProcs);
                msg.requester = msg.src;
                msg.addr = static_cast<Addr>(k) * kLineSize;
                net.send(msg);
            }
            eq.run();
        }
    });
    if (delivered != ops * static_cast<std::uint64_t>(reps))
        usage("network probe lost messages");
    return ns;
}

/** DirectoryStore::loadWord/storeWord over header and link words. */
double
probeProtocol(int reps, int lines)
{
    protocol::DirectoryStore dir;
    const std::uint64_t ops = static_cast<std::uint64_t>(lines) * 4;
    std::uint64_t sink = 0;
    const double ns = medianNsPerOp(reps, ops, [&] {
        for (int l = 0; l < lines; ++l) {
            const Addr h =
                protocol::headerAddr(static_cast<Addr>(l) * kLineSize);
            const Addr k =
                protocol::linkAddr(1 + static_cast<std::uint32_t>(l));
            const std::uint64_t hv = dir.loadWord(h);
            dir.storeWord(h, hv + 1);
            const std::uint64_t kv = dir.loadWord(k);
            dir.storeWord(k, kv + hv);
            sink += kv;
        }
    });
    if (dir.loadWord(protocol::headerAddr(0)) == 0)
        usage("protocol probe stored nothing");
    (void)sink;
    return ns;
}

/** EventQueue::scheduleAt + drainTick with a message-sized capture. */
double
probeSim(int reps, int batches)
{
    constexpr int kBatch = 1024;
    EventQueue eq;
    std::uint64_t sink = 0;
    const std::uint64_t ops = static_cast<std::uint64_t>(batches) * kBatch;
    const double ns = medianNsPerOp(reps, ops, [&] {
        for (int b = 0; b < batches; ++b) {
            for (int k = 0; k < kBatch; ++k) {
                protocol::Message msg;
                msg.addr = static_cast<Addr>(k) * kLineSize;
                msg.aux = static_cast<std::uint32_t>(b);
                eq.scheduleAt(eq.now() + 1 + static_cast<Tick>(k % 97),
                              [msg, &sink] { sink += msg.addr + msg.aux; });
            }
            while (!eq.empty())
                eq.drainTick(eq.nextTick());
        }
    });
    if (sink == 0)
        usage("sim probe ran no events");
    return ns;
}

int
cmdProbe(bool quick)
{
    const int reps = quick ? 1 : 7;
    const int scale = quick ? 1 : 20;
    calibrationSeconds(); // warm-up, as in cmdRun
    const double calBefore = calibrationSeconds();
    Json j;
    j.num("tango_ns_per_ref", probeTango(reps, 100 * scale))
        .num("ppisa_ns_per_handler", probePpisa(reps, 500 * scale))
        .num("network_ns_per_send", probeNetwork(reps, 20 * scale))
        .num("protocol_ns_per_dir_op", probeProtocol(reps, 5000 * scale))
        .num("sim_ns_per_event", probeSim(reps, 10 * scale))
        .num("cal_before_s", calBefore)
        .num("cal_after_s", calibrationSeconds());
    std::printf("%s\n", j.done().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("expected a command: run, probe or info");
    const std::string cmd = argv[1];
    if (cmd == "info") {
        Json j;
        j.str("build_type", PERFBENCH_BUILD_TYPE)
            .str("compiler", PERFBENCH_COMPILER);
        std::printf("%s\n", j.done().c_str());
        return 0;
    }
    if (cmd == "probe") {
        const bool quick = argc > 2 && !std::strcmp(argv[2], "--quick");
        return cmdProbe(quick);
    }
    if (cmd != "run")
        usage("unknown command");

    RunArgs a;
    for (int i = 2; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing option value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--app")) {
            a.app = next();
        } else if (!std::strcmp(argv[i], "--machine")) {
            const std::string mname = next();
            if (mname != "flash" && mname != "ideal")
                usage("--machine must be flash or ideal");
            a.ideal = mname == "ideal";
        } else if (!std::strcmp(argv[i], "--cache")) {
            a.cacheBytes =
                static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--seed")) {
            a.seed = std::strtoull(next(), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--verify")) {
            a.verify = true;
        } else if (!std::strcmp(argv[i], "--trace")) {
            a.trace = true;
        } else if (!std::strcmp(argv[i], "--calibrate")) {
            a.calibrate = true;
        } else if (!std::strcmp(argv[i], "--setup-only")) {
            a.setupOnly = true;
        } else {
            usage("unknown option");
        }
    }
    return cmdRun(a);
}
