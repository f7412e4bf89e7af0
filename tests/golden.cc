#include "golden.hh"

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>

#include "apps/barnes.hh"
#include "apps/fft.hh"
#include "apps/lu.hh"
#include "apps/mp3d.hh"
#include "apps/ocean.hh"
#include "apps/os_workload.hh"
#include "apps/radix.hh"
#include "apps/workload.hh"
#include "machine/machine.hh"
#include "machine/report.hh"
#include "sim/logging.hh"

namespace flashsim::golden
{
namespace
{

using machine::Machine;
using machine::MachineConfig;

/** Test-scale problem sizes (the same instances the app suite runs). */
std::unique_ptr<apps::Workload>
makeTestScale(const std::string &app)
{
    using namespace apps;
    if (app == "fft") {
        FftParams p;
        p.logN = 10;
        return std::make_unique<Fft>(p);
    }
    if (app == "lu") {
        LuParams p;
        p.n = 64;
        return std::make_unique<Lu>(p);
    }
    if (app == "ocean") {
        OceanParams p;
        p.n = 34;
        p.iters = 2;
        p.grids = 3;
        return std::make_unique<Ocean>(p);
    }
    if (app == "radix") {
        RadixParams p;
        p.keys = 1 << 12;
        return std::make_unique<Radix>(p);
    }
    if (app == "barnes") {
        BarnesParams p;
        p.particles = 256;
        p.steps = 2;
        return std::make_unique<Barnes>(p);
    }
    if (app == "mp3d") {
        Mp3dParams p;
        p.particles = 1024;
        p.steps = 2;
        p.cells = 256;
        return std::make_unique<Mp3d>(p);
    }
    if (app == "os") {
        OsParams p;
        p.tasks = 1;
        p.userLines = 32;
        p.pagesPerTask = 2;
        return std::make_unique<OsWorkload>(p);
    }
    fatal("golden: unknown app '%s'", app.c_str());
}

/** Oracle + watchdog in record-only mode. */
void
verifyRecordOnly(MachineConfig &cfg)
{
    cfg.magic.verify.oracle = true;
    cfg.magic.verify.watchdog = true;
    cfg.magic.verify.haltOnViolation = false;
    cfg.magic.verify.haltOnTrip = false;
}

/** The CLI's --verify --inject-seed 1 --inject-loss 0.05. */
MachineConfig
lossConfig()
{
    MachineConfig cfg = MachineConfig::flash(16);
    cfg.magic.verify.oracle = true;
    cfg.magic.verify.watchdog = true;
    cfg.magic.verify.fault.enabled = true;
    cfg.magic.verify.fault.seed = 1;
    cfg.magic.verify.fault.wireDropProb = 0.05;
    cfg.magic.verify.fault.wireDupProb = 0.05;
    cfg.magic.verify.fault.wireReorderProb = 0.05;
    return cfg;
}

/** Seeded commit-plane faults: jitter, NACKs, hint drops/dups and
 *  inbound stalls on a small-cache 8-node machine. */
MachineConfig
commitInjectionConfig()
{
    MachineConfig cfg = MachineConfig::flash(8, 64u * 1024u);
    verifyRecordOnly(cfg);
    cfg.magic.verify.fault.enabled = true;
    cfg.magic.verify.fault.seed = 7;
    cfg.magic.verify.fault.meshJitter = 10;
    cfg.magic.verify.fault.extraNackProb = 0.05;
    cfg.magic.verify.fault.dropHintProb = 0.05;
    cfg.magic.verify.fault.dupHintProb = 0.05;
    cfg.magic.verify.fault.inboundStall = 4;
    return cfg;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

Signature
machineSignature(Machine &m)
{
    const machine::Summary s = machine::summarize(m);
    Signature sig;
    auto add = [&sig](const char *k, std::string v) {
        sig.emplace_back(k, std::move(v));
    };
    add("exec_cycles", num(static_cast<std::uint64_t>(m.executionTime())));
    add("summary.execTime", num(static_cast<std::uint64_t>(s.execTime)));
    add("summary.busy", num(s.busy));
    add("summary.cont", num(s.cont));
    add("summary.read", num(s.read));
    add("summary.write", num(s.write));
    add("summary.sync", num(s.sync));
    add("summary.missRate", num(s.missRate));
    add("summary.dist.localClean", num(s.dist.localClean));
    add("summary.dist.localDirtyRemote", num(s.dist.localDirtyRemote));
    add("summary.dist.remoteClean", num(s.dist.remoteClean));
    add("summary.dist.remoteDirtyHome", num(s.dist.remoteDirtyHome));
    add("summary.dist.remoteDirtyRemote", num(s.dist.remoteDirtyRemote));
    add("summary.avgMemOcc", num(s.avgMemOcc));
    add("summary.maxMemOcc", num(s.maxMemOcc));
    add("summary.avgPpOcc", num(s.avgPpOcc));
    add("summary.maxPpOcc", num(s.maxPpOcc));
    add("summary.cacheReads", num(s.cacheReads));
    add("summary.cacheWrites", num(s.cacheWrites));
    add("summary.backgroundRefs", num(s.backgroundRefs));
    add("summary.readMisses", num(s.readMisses));
    add("summary.writeMisses", num(s.writeMisses));
    add("summary.handlerInvocations", num(s.handlerInvocations));
    add("summary.handlersPerMiss", num(s.handlersPerMiss));
    add("summary.specIssued", num(s.specIssued));
    add("summary.specUselessFrac", num(s.specUselessFrac));
    add("summary.mdcMissRate", num(s.mdcMissRate));
    add("summary.mdcReadMissRate", num(s.mdcReadMissRate));
    add("summary.mdcProtocolMemOps", num(s.mdcProtocolMemOps));
    add("summary.nacksSent", num(s.nacksSent));
    add("summary.wireDrops", num(s.wireDrops));
    add("summary.wireDups", num(s.wireDups));
    add("summary.wireReorders", num(s.wireReorders));
    add("summary.wireCopies", num(s.wireCopies));
    add("summary.wireRetransmits", num(s.wireRetransmits));
    add("summary.wireAssured", num(s.wireAssured));
    add("summary.wireAcks", num(s.wireAcks));
    add("summary.wireDupsFiltered", num(s.wireDupsFiltered));
    add("summary.wireReordersAccepted", num(s.wireReordersAccepted));
    add("summary.reqDropsInjected", num(s.reqDropsInjected));
    add("summary.timeoutRetries", num(s.timeoutRetries));
    add("summary.lateFills", num(s.lateFills));
    add("summary.degradedTxns", num(s.degradedTxns));
    add("summary.degradedResumes", num(s.degradedResumes));
    std::string degraded;
    for (const machine::Summary::DegradedTxn &d : s.degraded)
        degraded += (degraded.empty() ? "" : ",") + num(std::uint64_t{d.node}) +
                    ":" + hex(d.line) + ":" + num(std::uint64_t{d.retries});
    add("summary.degraded", degraded.empty() ? "-" : degraded);

    add("state_digest", hex(m.stateDigest()));
    add("net.messages", num(m.network().messages()));
    add("net.dataMessages", num(m.network().dataMessages()));

    ppisa::RunStats pp;
    for (int i = 0; i < m.numProcs(); ++i) {
        if (const magic::PpTimingModel *pm = m.node(i).magic().ppModel())
            pp.accumulate(pm->runStats());
    }
    add("pp.cycles", num(static_cast<std::uint64_t>(pp.cycles)));
    add("pp.pairs", num(pp.pairs));
    add("pp.instrs", num(pp.instrs));
    add("pp.specials", num(pp.specials));
    add("pp.aluBranch", num(pp.aluBranch));
    add("pp.memStall", num(pp.memStall));
    add("pp.invocations", num(pp.invocations));

    if (const verify::Sentinel *sent = m.sentinel()) {
        const verify::FaultInjector &inj = sent->injectorStats();
        add("verify.violations", num(sent->violations()));
        add("verify.trips", num(sent->trips()));
        if (const verify::Watchdog *wd = sent->watchdog())
            add("verify.retired", num(wd->retired()));
        if (const verify::CoherenceOracle *o = sent->oracle())
            add("verify.trackedLines",
                num(static_cast<std::uint64_t>(o->trackedLines())));
        add("inject.nacks", num(inj.nacksInjected()));
        add("inject.hintsDropped", num(inj.hintsDropped()));
        add("inject.hintsDuped", num(inj.hintsDuped()));
        add("inject.jitterCycles", num(inj.jitterCycles()));
        add("inject.stallCycles", num(inj.stallCycles()));
        add("inject.wireDrops", num(inj.wireDropsInjected()));
        add("inject.wireDups", num(inj.wireDupsInjected()));
        add("inject.wireReorders", num(inj.wireReordersInjected()));
        // The trace rings, from "recent activity" on (the header's
        // "t=" is the main queue's clock, not machine state).
        std::ostringstream pm;
        sent->writePostMortem(pm, "golden");
        const std::string text = pm.str();
        const std::size_t at = text.find("recent activity");
        add("verify.traceHash",
            hex(fnv1a(at == std::string::npos ? text : text.substr(at))));
    }
    return sig;
}

Signature
runApp(const MachineConfig &cfg, std::unique_ptr<apps::Workload> w)
{
    auto m = apps::runWorkload(cfg, *w);
    return machineSignature(*m);
}

/**
 * Host-side synchronization torture: contended locks interleaved with
 * barrier episodes, the critical section recording the exact
 * acquisition order — the lock winner order is decided entirely by
 * the tango sync phase's canonical (tick, node, sequence) order.
 */
Signature
runTorture()
{
    MachineConfig cfg = MachineConfig::flash(8, 64u * 1024u);
    Machine m(cfg);
    auto lock = std::make_shared<tango::LockVar>(m.makeLock(3));
    auto bar = std::make_shared<tango::BarrierVar>(m.makeBarrier());
    auto order = std::make_shared<std::vector<int>>();
    auto counter = std::make_shared<std::uint64_t>(0);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int round = 0; round < 6; ++round) {
            // Skew arrival so different processors reach the lock
            // first in different rounds.
            co_await env.busy(37 * static_cast<std::uint64_t>(
                                       (env.id() + round) % 8));
            co_await env.lockAcquire(*lock);
            order->push_back(env.id());
            *counter += static_cast<std::uint64_t>(env.id()) + 1;
            co_await env.busy(25);
            co_await env.lockRelease(*lock);
            co_await env.barrier(*bar);
        }
    });
    m.drain();
    Signature sig = machineSignature(m);
    std::string ord;
    for (int id : *order)
        ord += (ord.empty() ? "" : ",") + std::to_string(id);
    sig.emplace_back("torture.order", ord);
    sig.emplace_back("torture.acquisitions", num(lock->acquisitions));
    sig.emplace_back("torture.generations",
                     num(static_cast<std::uint64_t>(bar->gen)));
    sig.emplace_back("torture.counter", num(*counter));
    return sig;
}

struct Config
{
    std::string name;
    std::function<Signature()> run;
};

const std::vector<Config> &
configs()
{
    static const std::vector<Config> all = [] {
        std::vector<Config> v;
        for (const char *app :
             {"barnes", "fft", "lu", "mp3d", "ocean", "os", "radix"}) {
            const std::string a = app;
            v.push_back({a + "_flash_16p_1m", [a] {
                             return runApp(MachineConfig::flash(16),
                                           makeTestScale(a));
                         }});
        }
        v.push_back({"fft_ideal_16p_1m", [] {
                         return runApp(MachineConfig::ideal(16),
                                       makeTestScale("fft"));
                     }});
        v.push_back({"mp3d_ideal_16p_1m", [] {
                         return runApp(MachineConfig::ideal(16),
                                       makeTestScale("mp3d"));
                     }});
        v.push_back({"radix_flash_16p_4k", [] {
                         return runApp(MachineConfig::flash(16, 4096),
                                       makeTestScale("radix"));
                     }});
        v.push_back({"fft_flash_64p_1m", [] {
                         return runApp(MachineConfig::flash(64),
                                       apps::makeWorkload("fft"));
                     }});
        v.push_back({"sync_torture_flash_8p_64k", runTorture});
        v.push_back({"fft_commit_injection_8p_64k", [] {
                         return runApp(commitInjectionConfig(),
                                       makeTestScale("fft"));
                     }});
        v.push_back({"mp3d_inject_loss_16p_1m", [] {
                         return runApp(lossConfig(),
                                       makeTestScale("mp3d"));
                     }});
        return v;
    }();
    return all;
}

} // namespace

std::vector<std::string>
configNames()
{
    std::vector<std::string> v;
    for (const Config &c : configs())
        v.push_back(c.name);
    return v;
}

Signature
runConfig(const std::string &name)
{
    for (const Config &c : configs()) {
        if (c.name == name)
            return c.run();
    }
    fatal("golden: unknown config '%s'", name.c_str());
}

void
writeSignature(std::ostream &os, const std::string &name,
               const Signature &sig)
{
    os << "config " << name << '\n';
    for (const auto &[k, v] : sig)
        os << "  " << k << ' ' << v << '\n';
}

std::map<std::string, Signature>
readSignatures(std::istream &is)
{
    std::map<std::string, Signature> out;
    Signature *cur = nullptr;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, value;
        ls >> key >> value;
        if (line[0] != ' ') {
            if (key != "config")
                fatal("golden: malformed line '%s'", line.c_str());
            cur = &out[value];
            continue;
        }
        if (cur == nullptr)
            fatal("golden: field before any config: '%s'", line.c_str());
        cur->emplace_back(key, value);
    }
    return out;
}

} // namespace flashsim::golden
