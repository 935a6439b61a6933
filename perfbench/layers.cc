/**
 * @file
 * In-process traced replay of the perfbench streams.
 *
 * Usage:
 *   perfbench_layers --workload W --seed N --seconds S --spans PATH
 *
 * Replays the same seeded streams the socket client sends
 * (stream.hh) through the library's public calls and times each
 * call as a span, to split a request's cost by layer:
 *   - a bare AgentRegistry (flat) or PoolTree (pooled) driven by an
 *     EpochDriver, plus the fairness checks, enforcement plan and
 *     fairness-series append a TICK performs;
 *   - an AllocationService driven by direct calls, with a
 *     ReplicationHub attached as ref_serve attaches one;
 *   - a second AllocationService behind a CommandSession, fed the
 *     protocol lines themselves;
 *   - pooled_churn only: a Journal, synced after every request as
 *     the journaled server's ack-after-durable barrier does, and
 *     snapshot files written at the service's compaction cadence
 *     (every 1024 records), in a scratch directory.
 * Every replica sees the same requests in the same order (the
 * connections' rounds taken in turn), so each holds the same state.
 *
 * Spans go to the library's obs::Tracer, which keeps them in memory
 * beside the library's own spans; at the end they are written to
 * PATH as Chrome trace-event JSON. Each replayed request is one
 * replay.<kind> span enclosing the calls it made. The last stdout
 * line is one JSON object of per-layer metrics: the median self time
 * (duration minus the benchmark spans nested in it) of each layer's
 * spans, or a count. A layer that does no work on the
 * workload reports 0.
 */

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fairness.hh"
#include "obs/fairness_series.hh"
#include "obs/trace.hh"
#include "pool/pool_tree.hh"
#include "repl/replication_hub.hh"
#include "svc/agent_registry.hh"
#include "svc/allocation_service.hh"
#include "svc/enforcement_bridge.hh"
#include "svc/epoch_driver.hh"
#include "svc/journal.hh"
#include "svc/protocol.hh"
#include "svc/snapshot.hh"

#include "stream.hh"

namespace {

using namespace perfbench;
using namespace ref;

std::uint64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** Category of the benchmark's own spans; the library's spans
 *  (epoch.tick, journal.fsync, ...) carry others. */
constexpr const char *kCategory = "perfbench";

/** Times one call as a span of @p name. */
template <typename Fn>
auto
timed(const char *name, Fn &&fn)
{
    obs::Span span(name, kCategory);
    return fn();
}

/**
 * Self time (ns) of every span of kCategory, by name: its duration
 * minus that of the kCategory spans directly inside it. The library's
 * own spans are transparent: they neither count as children nor
 * close a parent.
 */
std::map<std::string, std::vector<double>>
selfTimes(std::vector<obs::TraceEvent> events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const obs::TraceEvent &a,
                        const obs::TraceEvent &b) {
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         if (a.startNs != b.startNs)
                             return a.startNs < b.startNs;
                         return a.durationNs > b.durationNs;
                     });
    struct Open
    {
        const obs::TraceEvent *event;
        std::uint64_t childNs;
    };
    std::map<std::string, std::vector<double>> self;
    std::vector<Open> open;
    const auto close = [&] {
        const Open &top = open.back();
        self[top.event->name].push_back(
            static_cast<double>(top.event->durationNs - top.childNs));
        open.pop_back();
    };
    for (const obs::TraceEvent &event : events) {
        if (std::strcmp(event.category, kCategory) != 0)
            continue;
        const std::uint64_t end = event.startNs + event.durationNs;
        while (!open.empty() &&
               (open.back().event->tid != event.tid ||
                open.back().event->startNs +
                        open.back().event->durationNs <
                    end))
            close();
        if (!open.empty())
            open.back().childNs += event.durationNs;
        open.push_back(Open{&event, 0});
    }
    while (!open.empty())
        close();
    return self;
}

/** Forwards to a ReplicationHub, timing ReplicationHub::onRecord. */
class TimedSink final : public svc::ReplicationSink
{
  public:
    void onRecord(const std::string &payload, bool isTick,
                  std::uint64_t epoch, std::uint32_t stateHash) override
    {
        timed("repl.on_record", [&] {
            hub_.onRecord(payload, isTick, epoch, stateHash);
            return 0;
        });
    }
    std::uint64_t headSeq() const override { return hub_.headSeq(); }
    void onStateAdopted() override { hub_.onStateAdopted(); }

  private:
    repl::ReplicationHub hub_;
};

/** Discards reply text; executeLine needs an ostream. */
class NullBuffer : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

linalg::Vector
elasticities(const Elasticities &e)
{
    return {std::strtod(e.e0.c_str(), nullptr),
            std::strtod(e.e1.c_str(), nullptr)};
}

/** The ServiceConfig ref_serve builds for the workload's timed
 *  phase. */
svc::ServiceConfig
serviceConfig(const Workload &w)
{
    svc::ServiceConfig config;
    config.capacity = core::SystemCapacity::fromCapacities({24, 12});
    config.pooled = w.pooled;
    config.buildEnforcement = !w.pooled;
    return config;
}

/** A service replica with a timed replication sink attached. */
struct ServiceReplica
{
    explicit ServiceReplica(const Workload &w) : service(serviceConfig(w))
    {
        service.setReplicationSink(&sink);
    }
    ~ServiceReplica() { service.setReplicationSink(nullptr); }
    ServiceReplica(const ServiceReplica &) = delete;
    ServiceReplica &operator=(const ServiceReplica &) = delete;

    TimedSink sink;
    svc::AllocationService service;
};

/** Every replica of one replay, fed one request at a time. */
class Replay
{
  public:
    Replay(const Workload &w, const std::string &work)
        : w_(w), work_(work),
          capacity_(core::SystemCapacity::fromCapacities({24, 12})),
          registry_(capacity_), tree_(capacity_, 8),
          driver_(w.pooled ? svc::EpochDriver(tree_)
                           : svc::EpochDriver(registry_)),
          direct_(w), viaProtocol_(w),
          session_(viaProtocol_.service), null_(&nullBuffer_)
    {
        if (w_.pooled) {
            // ref_serve --journal DIR --fsync-policy group:65536,2000.
            svc::JournalConfig config;
            config.directory = work + "/journal";
            config.groupBytes = 65536;
            config.groupUsec = 2000;
            std::filesystem::create_directories(config.directory);
            journal_ = std::make_unique<svc::Journal>(config);
            journal_->begin(1, capacity_.capacities());
        }
    }

    /** Replay one request. */
    void apply(const Op &op)
    {
        obs::Span request(parentName(op.kind), kCategory);
        switch (op.kind) {
        case Kind::PoolCreate:
            timed("pool.create_pool", [&] {
                tree_.createPool(op.name, 1.0, driver_.epoch());
                return 0;
            });
            direct_.service.createPool(op.name, 1.0);
            journal(recordOf(op));
            exec(op, "svc.protocol.exec.pool_create");
            break;
        case Kind::Admit: {
            const linalg::Vector e = elasticities(op.e);
            if (w_.pooled)
                timed("pool.admit", [&] {
                    tree_.admit(op.name, e, pool::kRootPath,
                                driver_.epoch());
                    return 0;
                });
            else
                timed("svc.registry.admit", [&] {
                    registry_.admit(op.name, e, driver_.epoch());
                    return 0;
                });
            direct_.service.admit(op.name, e);
            journal(recordOf(op));
            exec(op, "svc.protocol.exec.admit");
            break;
        }
        case Kind::Assign:
            timed("pool.assign", [&] {
                tree_.assign(op.name, op.pool);
                return 0;
            });
            direct_.service.assignPool(op.name, op.pool);
            journal(recordOf(op));
            exec(op, "svc.protocol.exec.assign");
            break;
        case Kind::Update: {
            const linalg::Vector e = elasticities(op.e);
            if (w_.pooled)
                timed("pool.update", [&] {
                    tree_.update(op.name, e);
                    return 0;
                });
            else
                timed("svc.registry.update", [&] {
                    registry_.update(op.name, e);
                    return 0;
                });
            direct_.service.update(op.name, e);
            journal(recordOf(op));
            exec(op, "svc.protocol.exec.update");
            break;
        }
        case Kind::Depart:
            if (w_.pooled)
                timed("pool.depart", [&] {
                    tree_.depart(op.name);
                    return 0;
                });
            else
                timed("svc.registry.depart", [&] {
                    registry_.depart(op.name);
                    return 0;
                });
            direct_.service.depart(op.name);
            journal(recordOf(op));
            exec(op, "svc.protocol.exec.depart");
            break;
        case Kind::Query:
            if (w_.pooled)
                timed("pool.shares_of",
                      [&] { return tree_.sharesOf(op.name); });
            exec(op, "svc.protocol.exec.query");
            break;
        case Kind::Tick:
            tick(op);
            break;
        }
    }

    /** Write snapshot files the way compaction does, when the
     *  service's cadence (every snapshotEvery records) comes due. */
    void maybeSnapshot(bool force)
    {
        if (!journal_ ||
            (!force && recordsSinceSnapshot_ <
                           journal_->config().snapshotEvery))
            return;
        recordsSinceSnapshot_ = 0;
        obs::Span span("replay.snapshot", kCategory);
        std::uint64_t seq = 0;
        svc::ServiceState state = svc::decodeServiceState(
            direct_.service.captureReplicationSnapshot(seq));
        state.generation = ++generation_;
        const std::string bytes = timed("svc.snapshot.encode", [&] {
            return svc::encodeServiceState(state);
        });
        snapshotBytes_.push_back(static_cast<double>(bytes.size()));
        const std::string dir = work_ + "/journal";
        std::string error;
        const bool ok = timed("svc.snapshot.write", [&] {
            return svc::writeSnapshotFile(dir, dir + "/snapshot.tmp",
                                          dir + "/snapshot.bin", state,
                                          error);
        });
        if (!ok)
            throw std::runtime_error("snapshot write failed: " + error);
    }

    /** Sync the journal replica, as the server's ack-after-durable
     *  barrier does once per batch of replies it flushes. */
    void barrier()
    {
        if (journal_)
            timed("svc.journal.sync", [&] {
                journal_->sync();
                return 0;
            });
    }

    const std::vector<double> &efPairs() const { return efPairs_; }
    const std::vector<double> &snapshotBytes() const
    {
        return snapshotBytes_;
    }

  private:
    static const char *parentName(Kind kind)
    {
        switch (kind) {
        case Kind::PoolCreate:
            return "replay.pool_create";
        case Kind::Admit:
            return "replay.admit";
        case Kind::Assign:
            return "replay.assign";
        case Kind::Update:
            return "replay.update";
        case Kind::Depart:
            return "replay.depart";
        case Kind::Query:
            return "replay.query";
        case Kind::Tick:
            return "replay.tick";
        }
        return "replay.other";
    }

    svc::JournalRecord recordOf(const Op &op) const
    {
        svc::JournalRecord record;
        record.name = op.name;
        switch (op.kind) {
        case Kind::PoolCreate:
            record.type = svc::JournalRecord::Type::PoolCreate;
            record.epoch = driver_.epoch();
            break;
        case Kind::Admit:
            record.type = svc::JournalRecord::Type::Admit;
            record.elasticities = elasticities(op.e);
            record.epoch = driver_.epoch();
            break;
        case Kind::Assign:
            record.type = svc::JournalRecord::Type::PoolAssign;
            record.pool = op.pool;
            break;
        case Kind::Update:
            record.type = svc::JournalRecord::Type::Update;
            record.elasticities = elasticities(op.e);
            break;
        case Kind::Depart:
            record.type = svc::JournalRecord::Type::Depart;
            break;
        case Kind::Tick:
            record.type = svc::JournalRecord::Type::Tick;
            record.name.clear();
            record.epoch = driver_.epoch();
            break;
        case Kind::Query:
            break;
        }
        return record;
    }

    void journal(const svc::JournalRecord &record)
    {
        if (!journal_)
            return;
        timed("svc.journal.append", [&] {
            return journal_->append(record);
        });
        ++recordsSinceSnapshot_;
        maybeSnapshot(false);
    }

    void exec(const Op &op, const char *span)
    {
        const std::string line = op.line();
        const auto status = timed(span, [&] {
            return session_.executeLine(
                line.substr(0, line.size() - 1), null_);
        });
        if (status != svc::CommandSession::LineStatus::Executed)
            throw std::runtime_error("replay rejected: " + line);
    }

    void tick(const Op &op)
    {
        const svc::EpochResult result =
            timed("svc.epoch.tick", [&] { return driver_.tick(); });
        if (w_.pooled) {
            const auto views =
                timed("pool.pools", [&] { return tree_.pools(); });
            for (const pool::PoolView &view : views)
                timed("pool.share_fractions", [&] {
                    return tree_.poolShareFractions(view.path);
                });
        } else {
            const core::Allocation allocation = timed(
                "svc.registry.allocate",
                [&] { return registry_.allocate(); });
            const core::AgentList agents = timed(
                "svc.registry.agent_list",
                [&] { return registry_.agentList(); });
            timed("core.fairness.si", [&] {
                return core::checkSharingIncentives(agents, capacity_,
                                                    allocation);
            });
            timed("core.fairness.ef", [&] {
                return core::checkEnvyFreeness(agents, allocation);
            });
            efPairs_.push_back(static_cast<double>(agents.size()) *
                               static_cast<double>(agents.size() - 1));
            timed("svc.enforcement.plan", [&] {
                return svc::buildEnforcementPlan(
                    result.agentNames, allocation, capacity_, 16);
            });
        }
        obs::FairnessSample sample;
        sample.epoch = result.epoch;
        sample.agents = result.liveAgents;
        sample.checked = result.propertiesChecked;
        sample.latencyNs = static_cast<std::uint64_t>(
            result.latency.count());
        timed("obs.fairness_append", [&] {
            series_.append(sample);
            return 0;
        });
        journal(recordOf(op));
        timed("svc.service.tick",
              [&] { return direct_.service.tick(); });
        timed("svc.service.state_hash",
              [&] { return direct_.service.stateHash(); });
        exec(op, "svc.protocol.exec.tick");
    }

    Workload w_;
    std::string work_;
    core::SystemCapacity capacity_;
    svc::AgentRegistry registry_;
    pool::PoolTree tree_;
    svc::EpochDriver driver_;
    obs::FairnessSeries series_;
    ServiceReplica direct_;
    ServiceReplica viaProtocol_;
    svc::CommandSession session_;
    NullBuffer nullBuffer_;
    std::ostream null_;
    std::unique_ptr<svc::Journal> journal_;
    std::uint64_t recordsSinceSnapshot_ = 0;
    std::uint64_t generation_ = 1;
    std::vector<double> efPairs_;
    std::vector<double> snapshotBytes_;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/** Per-layer metric: median self time of a span, in a unit. */
struct Layer
{
    const char *metric;
    const char *span;
    const char *unit;
    double nsPerUnit;
};

const Layer kLayers[] = {
    {"core.fairness.ef_ms", "core.fairness.ef", "ms", 1e6},
    {"core.fairness.si_ms", "core.fairness.si", "ms", 1e6},
    {"svc.registry.allocate_us", "svc.registry.allocate", "us", 1e3},
    {"svc.registry.agent_list_us", "svc.registry.agent_list", "us", 1e3},
    {"svc.registry.admit_us", "svc.registry.admit", "us", 1e3},
    {"svc.registry.update_us", "svc.registry.update", "us", 1e3},
    {"svc.registry.depart_us", "svc.registry.depart", "us", 1e3},
    {"svc.epoch.tick_ms", "svc.epoch.tick", "ms", 1e6},
    {"svc.enforcement.plan_us", "svc.enforcement.plan", "us", 1e3},
    {"svc.service.tick_ms", "svc.service.tick", "ms", 1e6},
    {"svc.service.state_hash_ms", "svc.service.state_hash", "ms", 1e6},
    {"svc.protocol.exec_us.admit", "svc.protocol.exec.admit", "us", 1e3},
    {"svc.protocol.exec_us.update", "svc.protocol.exec.update", "us",
     1e3},
    {"svc.protocol.exec_us.depart", "svc.protocol.exec.depart", "us",
     1e3},
    {"svc.protocol.exec_us.query", "svc.protocol.exec.query", "us", 1e3},
    {"svc.protocol.exec_us.tick", "svc.protocol.exec.tick", "us", 1e3},
    {"pool.admit_us", "pool.admit", "us", 1e3},
    {"pool.assign_us", "pool.assign", "us", 1e3},
    {"pool.update_us", "pool.update", "us", 1e3},
    {"pool.depart_us", "pool.depart", "us", 1e3},
    {"pool.shares_of_us", "pool.shares_of", "us", 1e3},
    {"pool.pools_us", "pool.pools", "us", 1e3},
    {"pool.share_fractions_us", "pool.share_fractions", "us", 1e3},
    {"svc.journal.append_us", "svc.journal.append", "us", 1e3},
    {"svc.journal.sync_us", "svc.journal.sync", "us", 1e3},
    {"svc.snapshot.write_ms", "svc.snapshot.write", "ms", 1e6},
    {"repl.on_record_us", "repl.on_record", "us", 1e3},
    {"obs.fairness_append_us", "obs.fairness_append", "us", 1e3},
};

/** Rounds replayed at most, per connection: bounds the span count
 *  where requests are cheap. */
constexpr std::size_t kMaxRounds = 40;

int
run(int argc, char **argv)
{
    std::string workload, spansPath;
    std::uint64_t seed = 1;
    double seconds = 10;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg == "--workload")
            workload = argv[i + 1];
        else if (arg == "--seed")
            seed = std::stoull(argv[i + 1]);
        else if (arg == "--seconds")
            seconds = std::stod(argv[i + 1]);
        else if (arg == "--spans")
            spansPath = argv[i + 1];
        else
            throw std::runtime_error("unknown argument " + arg);
    }
    if (workload.empty() || spansPath.empty())
        throw std::runtime_error("need --workload and --spans");
    const Workload w = workloadByName(workload);
    const std::string work = spansPath + ".work";
    std::filesystem::remove_all(work);
    std::filesystem::create_directories(work);

    {
        Replay replay(w, work);
        std::vector<ConnStream> streams;
        for (std::size_t c = 0; c < kConnections; ++c)
            streams.emplace_back(w, seed, c);

        // One journal barrier per batch of `batch` requests, as the
        // server syncs once per pass over a connection's pipelined
        // requests.
        std::size_t batch = 1;
        std::size_t inBatch = 0;
        const auto apply = [&](const Op &op) {
            replay.apply(op);
            if (++inBatch >= batch) {
                replay.barrier();
                inBatch = 0;
            }
        };

        // Set-up, as the client sends it. Untraced: the rounds below
        // give every layer's steady-state samples.
        batch = kPreloadWindow;
        if (w.pooled)
            for (const Op &op : streams[0].poolCreates())
                apply(op);
        for (ConnStream &stream : streams)
            for (const Op &op : stream.preload())
                apply(op);
        batch = 1;
        Op tick;
        tick.kind = Kind::Tick;
        apply(tick);
        for (ConnStream &stream : streams)
            stream.preloadTicked();
        obs::Tracer &tracer = obs::Tracer::global();
        // The default ring holds several times the spans kMaxRounds
        // rounds record (about 10 a request); overflow is checked below.
        tracer.enable();
        replay.maybeSnapshot(true);

        // Rounds, the connections taking turns.
        const std::uint64_t deadline =
            nowNs() + static_cast<std::uint64_t>(
                          std::min(seconds, 10.0) * 1e9);
        for (std::size_t round = 0;
             round < kMaxRounds && nowNs() < deadline; ++round) {
            for (ConnStream &stream : streams)
                for (const Op &op : stream.round())
                    apply(op);
        }

        tracer.disable();
        if (tracer.stats().overwritten != 0)
            throw std::runtime_error("span ring overflowed");
        auto self = selfTimes(tracer.events());

        std::ostringstream out;
        out.precision(10);
        out << "{";
        for (const Layer &layer : kLayers)
            out << "\"" << layer.metric << "\": {\"value\": "
                << median(self[layer.span]) / layer.nsPerUnit
                << ", \"unit\": \"" << layer.unit << "\"}, ";
        out << "\"core.fairness.ef_pairs\": {\"value\": "
            << median(replay.efPairs())
            << ", \"unit\": \"count\"}, \"svc.snapshot.bytes\": "
               "{\"value\": "
            << median(replay.snapshotBytes())
            << ", \"unit\": \"bytes\"}}";

        std::ofstream spans(spansPath);
        tracer.writeChromeTrace(spans);
        spans.close();
        if (!spans)
            throw std::runtime_error("cannot write " + spansPath);
        std::cout << out.str() << std::endl;
    }
    std::filesystem::remove_all(work);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "perfbench_layers: " << error.what() << "\n";
        return 1;
    }
}
