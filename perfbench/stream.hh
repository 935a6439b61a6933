/**
 * @file
 * Seeded request streams for the perfbench workloads.
 *
 * The socket client (client.cc) and the in-process traced run
 * (layers.cc) both draw their requests from this one generator, so
 * the traced run replays exactly the streams the socket run sends.
 *
 * A stream belongs to one connection. Agent names are local to it
 * ("c<conn>_<k>"), so the requests one connection generates never
 * depend on how the server interleaves it with the others. Every
 * request is built to succeed:
 *   - DEPART and UPDATE pick a live agent of this connection;
 *   - QUERY <name> picks a live agent admitted before this
 *     connection's last TICK (so it is in any snapshot the server
 *     can publish after that TICK);
 *   - POOL ASSIGN follows the ADMIT of the same agent.
 *
 * The timed phase is made of whole rounds. Each round holds a fixed
 * number of each request kind, in a seeded order, and ends with one
 * TICK; so the mix of work per round is the same in every run.
 */

#ifndef PERFBENCH_STREAM_HH
#define PERFBENCH_STREAM_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/** Request kinds the streams generate. */
enum class Kind : std::uint8_t
{
    PoolCreate,
    Admit,
    Assign,
    Update,
    Depart,
    Query,
    Tick,
};

inline constexpr std::size_t kKinds = 7;

/** Connections per workload: one to run TICKs while the other's
 *  requests wait, so the stall each TICK causes shows. */
inline constexpr std::size_t kConnections = 2;

/** Requests outstanding per connection while preloading. */
inline constexpr std::size_t kPreloadWindow = 64;

inline const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::PoolCreate:
        return "pool_create";
    case Kind::Admit:
        return "admit";
    case Kind::Assign:
        return "assign";
    case Kind::Update:
        return "update";
    case Kind::Depart:
        return "depart";
    case Kind::Query:
        return "query";
    case Kind::Tick:
        return "tick";
    }
    return "other";
}

/** Elasticity pair as sent on the wire (exact decimal text). */
struct Elasticities
{
    std::string e0;
    std::string e1;
};

/** One request. */
struct Op
{
    Kind kind = Kind::Tick;
    std::string name;   //!< Agent, or pool path for PoolCreate.
    Elasticities e;     //!< Admit / Update.
    std::string pool;   //!< Assign.
    /** Query: every elasticity pair the agent can hold in the
     *  snapshot that answers it (see ConnStream::query). */
    std::vector<Elasticities> candidates;

    /** The protocol line, newline included. */
    std::string line() const
    {
        switch (kind) {
        case Kind::PoolCreate:
            return "POOL CREATE " + name + "\n";
        case Kind::Admit:
            return "ADMIT " + name + " " + e.e0 + " " + e.e1 + "\n";
        case Kind::Assign:
            return "POOL ASSIGN " + name + " " + pool + "\n";
        case Kind::Update:
            return "UPDATE " + name + " " + e.e0 + " " + e.e1 + "\n";
        case Kind::Depart:
            return "DEPART " + name + "\n";
        case Kind::Query:
            return "QUERY " + name + "\n";
        case Kind::Tick:
            return "TICK\n";
        }
        return "\n";
    }
};

/** What one workload sends. */
struct Workload
{
    std::string name;
    bool pooled = false;
    std::size_t agentsPerConn = 0;
    std::size_t pools = 0;     //!< Pooled: Zipf-skewed pools.
    /** Round make-up; every round ends with one TICK. In pooled
     *  workloads each admit is followed by its POOL ASSIGN. */
    unsigned admits = 0;
    unsigned departs = 0;
    unsigned updates = 0;
    unsigned queries = 0;
    /** Rounds per connection after which the server's peak RSS is
     *  read, all connections quiet: a fixed amount of work, since
     *  some server state grows with every TICK. */
    std::uint64_t rssRounds = 0;

    std::size_t roundLength() const
    {
        return admits * (pooled ? 2u : 1u) + departs + updates +
               queries + 1;
    }
};

/** The benchmark's workloads (see perfbench/README.md for why). */
inline Workload
workloadByName(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "epoch_flat") {
        w.agentsPerConn = 512;
        w.admits = 1;
        w.departs = 1;
        w.updates = 7;
        w.queries = 6;
        w.rssRounds = 48;
    } else if (name == "pooled_churn") {
        w.pooled = true;
        w.agentsPerConn = 10000;
        w.pools = 64;
        w.admits = 1;
        w.departs = 1;
        w.updates = 6;
        w.queries = 6;
        w.rssRounds = 192;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

/** splitmix64: small, fully specified, the same on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n > 0. */
    std::size_t below(std::size_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return (next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

/** Pool path of pool index @p k. */
inline std::string
poolPath(std::size_t k)
{
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "p%02zu", k);
    return buffer;
}

/**
 * The request stream of one connection: preload, then whole rounds.
 * Tracks the connection's live agents so every request succeeds.
 */
class ConnStream
{
  public:
    ConnStream(const Workload &workload, std::uint64_t seed,
               std::size_t conn)
        : w_(workload), conn_(conn),
          rng_(seed * 0x100000001b3ULL + conn * 0x9e3779b97f4a7c15ULL +
               0x243f6a8885a308d3ULL)
    {
        if (w_.pooled) {
            // Zipf(1) over the pools: pool k gets weight 1/(k+1).
            double total = 0;
            for (std::size_t k = 0; k < w_.pools; ++k) {
                total += 1.0 / static_cast<double>(k + 1);
                zipfCdf_.push_back(total);
            }
            for (double &c : zipfCdf_)
                c /= total;
        }
    }

    /** POOL CREATE for every pool (sent once, by connection 0). */
    std::vector<Op> poolCreates() const
    {
        std::vector<Op> ops;
        for (std::size_t k = 0; k < w_.pools; ++k) {
            Op op;
            op.kind = Kind::PoolCreate;
            op.name = poolPath(k);
            ops.push_back(std::move(op));
        }
        return ops;
    }

    /** This connection's starting population. */
    std::vector<Op> preload()
    {
        std::vector<Op> ops;
        for (std::size_t i = 0; i < w_.agentsPerConn; ++i)
            admit(ops);
        return ops;
    }

    /** Call once the TICK that ends the preload has been sent:
     *  the preloaded agents become queryable. */
    void preloadTicked()
    {
        tick();
        minLive_ = maxLive_ = live_.size();
    }

    /** One round: a seeded order of the round's requests, then TICK. */
    std::vector<Op> round()
    {
        std::vector<Kind> slots;
        slots.insert(slots.end(), w_.admits, Kind::Admit);
        slots.insert(slots.end(), w_.departs, Kind::Depart);
        slots.insert(slots.end(), w_.updates, Kind::Update);
        slots.insert(slots.end(), w_.queries, Kind::Query);
        for (std::size_t i = slots.size(); i > 1; --i)
            std::swap(slots[i - 1], slots[rng_.below(i)]);
        std::vector<Op> ops;
        ops.reserve(w_.roundLength());
        for (const Kind kind : slots) {
            switch (kind) {
            case Kind::Admit:
                admit(ops);
                break;
            case Kind::Depart:
                depart(ops);
                break;
            case Kind::Update:
                update(ops);
                break;
            case Kind::Query:
                query(ops);
                break;
            default:
                break;
            }
            minLive_ = std::min(minLive_, live_.size());
            maxLive_ = std::max(maxLive_, live_.size());
        }
        Op op;
        op.kind = Kind::Tick;
        ops.push_back(std::move(op));
        tick();
        return ops;
    }

    /** Live agents with their current elasticities. */
    std::vector<std::pair<std::string, Elasticities>> liveAgents() const
    {
        std::vector<std::pair<std::string, Elasticities>> out;
        out.reserve(live_.size());
        for (const Agent &agent : live_)
            out.emplace_back(agent.name, agent.versions.back());
        return out;
    }

    /** Fewest / most live agents at any point after the preload. */
    std::size_t minLive() const { return minLive_; }
    std::size_t maxLive() const { return maxLive_; }

  private:
    struct Agent
    {
        std::string name;
        /** Values held since this connection's last TICK; the last
         *  one is current. */
        std::vector<Elasticities> versions;
        bool ticked = false;  //!< Admitted before the last TICK.
        bool dirty = false;   //!< In dirty_.
    };

    Elasticities draw()
    {
        // Six decimals in [0.05, 1): exact text that the server and
        // the checker both parse to the same double.
        const auto value = [this] {
            char buffer[16];
            std::snprintf(buffer, sizeof(buffer), "0.%06u",
                          static_cast<unsigned>(
                              50000 + rng_.below(950000)));
            return std::string(buffer);
        };
        Elasticities e;
        e.e0 = value();
        e.e1 = value();
        return e;
    }

    void admit(std::vector<Op> &ops)
    {
        Agent agent;
        agent.name = "c" + std::to_string(conn_) + "_" +
                     std::to_string(nextName_++);
        agent.versions.push_back(draw());
        Op op;
        op.kind = Kind::Admit;
        op.name = agent.name;
        op.e = agent.versions.back();
        ops.push_back(op);
        if (w_.pooled) {
            Op assign;
            assign.kind = Kind::Assign;
            assign.name = agent.name;
            const double u = rng_.unit();
            const auto it = std::upper_bound(zipfCdf_.begin(),
                                             zipfCdf_.end(), u);
            assign.pool = poolPath(std::min<std::size_t>(
                it - zipfCdf_.begin(), w_.pools - 1));
            ops.push_back(std::move(assign));
        }
        index_[agent.name] = live_.size();
        fresh_.push_back(agent.name);
        live_.push_back(std::move(agent));
    }

    void depart(std::vector<Op> &ops)
    {
        const std::size_t i = rng_.below(live_.size());
        Op op;
        op.kind = Kind::Depart;
        op.name = live_[i].name;
        ops.push_back(std::move(op));
        index_.erase(live_[i].name);
        if (i + 1 != live_.size()) {
            live_[i] = std::move(live_.back());
            index_[live_[i].name] = i;
        }
        live_.pop_back();
    }

    void update(std::vector<Op> &ops)
    {
        Agent &agent = live_[rng_.below(live_.size())];
        agent.versions.push_back(draw());
        if (!agent.dirty) {
            agent.dirty = true;
            dirty_.push_back(agent.name);
        }
        Op op;
        op.kind = Kind::Update;
        op.name = agent.name;
        op.e = agent.versions.back();
        ops.push_back(std::move(op));
    }

    /**
     * QUERY a live agent admitted before the last TICK. A flat QUERY
     * answers from the newest published snapshot, which is at least
     * this connection's last TICK and may be another connection's
     * later one; so the agent's elasticities there are one of the
     * values it held since the last TICK. A pooled QUERY answers from
     * the live tree, which holds the current value.
     */
    void query(std::vector<Op> &ops)
    {
        const Agent *agent = nullptr;
        while (agent == nullptr) {
            const Agent &pick = live_[rng_.below(live_.size())];
            if (pick.ticked)
                agent = &pick;
        }
        Op op;
        op.kind = Kind::Query;
        op.name = agent->name;
        if (w_.pooled)
            op.candidates.push_back(agent->versions.back());
        else
            op.candidates = agent->versions;
        ops.push_back(std::move(op));
    }

    void tick()
    {
        for (const std::string &name : dirty_) {
            const auto it = index_.find(name);
            if (it == index_.end())
                continue;  // Departed since its update.
            Agent &agent = live_[it->second];
            agent.versions.erase(agent.versions.begin(),
                                 agent.versions.end() - 1);
            agent.dirty = false;
        }
        dirty_.clear();
        for (const std::string &name : fresh_) {
            const auto it = index_.find(name);
            if (it != index_.end())
                live_[it->second].ticked = true;
        }
        fresh_.clear();
    }

    Workload w_;
    std::size_t conn_;
    Rng rng_;
    std::vector<double> zipfCdf_;
    std::vector<Agent> live_;
    std::unordered_map<std::string, std::size_t> index_;
    std::vector<std::string> dirty_;  //!< Updated since last TICK.
    std::vector<std::string> fresh_;  //!< Admitted since last TICK.
    std::uint64_t nextName_ = 0;
    std::size_t minLive_ = 0;
    std::size_t maxLive_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_STREAM_HH
