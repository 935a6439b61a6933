/**
 * @file
 * Closed-loop socket client for the perfbench workloads.
 *
 * Drives a running `ref_serve --listen` with the seeded streams of
 * stream.hh and records what it sent and what came back, for
 * perfbench/check.py to verify. It does not link the REF library:
 * everything it knows about the allocation comes off the wire.
 *
 * Usage:
 *   perfbench_client --workload W --seed N --seconds S --port P
 *                    --server-pid PID --report PATH [--rounds K]
 *                    [--journal]
 *   perfbench_client --workload W --port P --report PATH --restart
 *
 * Run mode: preload the population (pipelined, one connection after
 * the other), TICK once, then run whole rounds on every connection
 * until S seconds have passed, each connection waiting for each
 * reply before it sends the next request (closed loop). Afterwards,
 * on one connection: TICK, read every share, STATS, and SHUTDOWN.
 * The server's peak RSS is read once every connection has done
 * Workload::rssRounds rounds (RssCheckpoint), its socket byte
 * counters just before and after the timed phase (readServerBytes).
 * Prints one JSON summary line on stdout and writes the report
 * file. --rounds K runs exactly K rounds per connection instead of a
 * timed phase; --journal says the server journals, so its STATS must
 * count journal records.
 *
 * Restart mode: against a journaled server restarted on the
 * same journal, read STATS and every agent named in the report, add
 * them to the report, then SHUTDOWN.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "stream.hh"

namespace {

using namespace perfbench;

std::uint64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

[[noreturn]] void
fail(const std::string &message)
{
    throw std::runtime_error(message);
}

/** Blocking line-oriented TCP connection. */
class Conn
{
  public:
    explicit Conn(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            fail("socket: " + std::string(std::strerror(errno)));
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            fail("connect: " + std::string(std::strerror(errno)));
    }
    ~Conn() { ::close(fd_); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    void send(const std::string &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                fail("send: " + std::string(std::strerror(errno)));
            off += static_cast<std::size_t>(n);
        }
        sentBytes_ += bytes.size();
    }

    /** Block until at least one line is buffered; append every
     *  complete line to @p lines. */
    void readLines(std::vector<std::string> &lines)
    {
        if (!pending_.empty()) {
            lines.insert(lines.end(), pending_.begin(), pending_.end());
            pending_.clear();
            return;
        }
        for (;;) {
            std::size_t start = 0;
            std::size_t newline;
            while ((newline = buffer_.find('\n', start)) !=
                   std::string::npos) {
                lines.emplace_back(buffer_, start, newline - start);
                start = newline + 1;
            }
            buffer_.erase(0, start);
            if (!lines.empty())
                return;
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                fail("connection closed by server");
            buffer_.append(chunk, static_cast<std::size_t>(n));
            readBytes_ += static_cast<std::uint64_t>(n);
        }
    }

    std::string readLine()
    {
        if (pending_.empty()) {
            std::vector<std::string> lines;
            readLines(lines);
            pending_.insert(pending_.end(), lines.begin(), lines.end());
        }
        std::string line = std::move(pending_.front());
        pending_.pop_front();
        return line;
    }

    /** Bytes this connection has sent and received so far. */
    std::uint64_t sentBytes() const { return sentBytes_; }
    std::uint64_t readBytes() const { return readBytes_; }

  private:
    int fd_ = -1;
    std::string buffer_;
    std::deque<std::string> pending_;
    std::uint64_t sentBytes_ = 0;
    std::uint64_t readBytes_ = 0;
};

/** What one connection saw. */
struct ConnLog
{
    std::array<std::uint64_t, kKinds> sent{};
    std::uint64_t failed = 0;
    std::vector<std::uint64_t> epochs;
    /** Timed-phase QUERY replies, one "q s0 s1 e0 e1 ..." line each
     *  with the elasticity pairs that can explain it. A line equal
     *  to the agent's previous one (same snapshot, same candidates)
     *  is not repeated. */
    std::string queryLines;
    std::unordered_map<std::string, std::string> lastQueryLine;
    std::vector<std::uint64_t> opNs;     //!< Non-TICK round trips.
    std::vector<std::uint64_t> tickNs;   //!< TICK round trips.
    std::vector<std::uint64_t> queryNs;  //!< QUERY round trips.
    std::uint64_t lastReplyNs = 0;
    std::vector<std::pair<std::string, std::string>> shares;
};

std::vector<std::string>
split(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream stream(line);
    std::string token;
    while (stream >> token)
        tokens.push_back(token);
    return tokens;
}

/**
 * Check one reply line against the request it answers and record
 * what the checker needs. An ERR reply counts as failed; any other
 * reply that does not fit the request is a protocol fault.
 */
void
handleReply(const Op &op, const std::string &line, ConnLog &log,
            bool recordQueries)
{
    if (line.rfind("ERR", 0) == 0) {
        ++log.failed;
        std::cerr << "perfbench_client: " << op.line().substr(
                         0, op.line().size() - 1)
                  << " -> " << line << "\n";
        return;
    }
    const auto expect = [&](const char *prefix) {
        if (line.rfind(prefix, 0) != 0)
            fail("reply '" + line + "' to '" + op.line() +
                 "' lacks '" + prefix + "'");
    };
    switch (op.kind) {
    case Kind::PoolCreate:
        expect("OK pool ");
        break;
    case Kind::Admit:
        expect("OK admitted ");
        break;
    case Kind::Assign:
        expect("OK assigned ");
        break;
    case Kind::Update:
        expect("OK updated ");
        break;
    case Kind::Depart:
        expect("OK departed ");
        break;
    case Kind::Tick: {
        expect("EPOCH ");
        log.epochs.push_back(std::stoull(split(line).at(1)));
        break;
    }
    case Kind::Query: {
        expect("SHARE ");
        const auto tokens = split(line);
        if (tokens.size() != 4 || tokens[1] != op.name)
            fail("malformed reply '" + line + "' to QUERY " + op.name);
        if (recordQueries) {
            std::string record = "q " + tokens[2] + " " + tokens[3];
            for (const Elasticities &e : op.candidates)
                record += " " + e.e0 + " " + e.e1;
            std::string &last = log.lastQueryLine[op.name];
            if (record != last) {
                log.queryLines += record + "\n";
                last = std::move(record);
            }
        } else
            log.shares.emplace_back(op.name,
                                    tokens[2] + " " + tokens[3]);
        break;
    }
    }
}

/** Pipelined closed loop over a fixed list of requests. */
void
runOps(Conn &conn, const std::vector<Op> &ops, std::size_t window,
       ConnLog &log)
{
    std::size_t next = 0;
    std::deque<const Op *> inflight;
    std::vector<std::string> lines;
    while (next < ops.size() || !inflight.empty()) {
        std::string batch;
        while (next < ops.size() && inflight.size() < window) {
            batch += ops[next].line();
            ++log.sent[static_cast<std::size_t>(ops[next].kind)];
            inflight.push_back(&ops[next++]);
        }
        if (!batch.empty())
            conn.send(batch);
        lines.clear();
        conn.readLines(lines);
        for (const std::string &line : lines) {
            if (inflight.empty())
                fail("unsolicited reply '" + line + "'");
            handleReply(*inflight.front(), line, log, false);
            inflight.pop_front();
        }
    }
}

/** Peak resident set of @p pid in MB (VmHWM); 0 if unreadable. */
double
peakRssMb(long pid)
{
    std::ifstream file("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(file, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(split(line).at(1)) / 1024.0;
    return 0;
}

/**
 * Where the server's peak RSS is read: once every connection has
 * finished Workload::rssRounds rounds, or its timed phase if that ends
 * first, so the server is quiet and has done a fixed amount of work.
 * The last connection to arrive reads it; the others wait for it.
 */
class RssCheckpoint
{
  public:
    explicit RssCheckpoint(long serverPid) : serverPid_(serverPid) {}

    void arrive()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (++arrived_ == kConnections) {
            rssMb_ = peakRssMb(serverPid_);
            allArrived_.notify_all();
            return;
        }
        allArrived_.wait(lock, [&] { return arrived_ == kConnections; });
    }

    double rssMb() const { return rssMb_; }

  private:
    long serverPid_;
    std::mutex mutex_;
    std::condition_variable allArrived_;
    std::size_t arrived_ = 0;
    double rssMb_ = 0;
};

/**
 * Timed phase on one connection: start whole rounds until the
 * deadline (or @p rounds of them, when non-zero), one request
 * outstanding; time each reply. A connection holds @p tickToken
 * from sending its TICK to reading the reply, so the connections'
 * TICKs never queue behind each other: each TICK round trip is one
 * epoch's work, however the connections interleave, while the other
 * connection's requests still stall behind it.
 */
void
runTimed(Conn &conn, ConnStream &stream, std::uint64_t deadlineNs,
         std::uint64_t rounds, std::uint64_t rssRounds,
         RssCheckpoint &checkpoint, std::mutex &tickToken, ConnLog &log)
{
    // Arrive at the checkpoint exactly once, on every way out too, so
    // no connection waits there for one that has failed.
    struct Arrival
    {
        RssCheckpoint &checkpoint;
        bool done = false;
        void operator()()
        {
            if (!done) {
                done = true;
                checkpoint.arrive();
            }
        }
        ~Arrival() { (*this)(); }
    } arrival{checkpoint};
    for (std::uint64_t started = 0;; ++started) {
        if (started == rssRounds)
            arrival();
        if (rounds ? started == rounds : monotonicNs() >= deadlineNs)
            break;
        for (const Op &op : stream.round()) {
            std::unique_lock<std::mutex> token(tickToken,
                                               std::defer_lock);
            if (op.kind == Kind::Tick)
                token.lock();
            ++log.sent[static_cast<std::size_t>(op.kind)];
            const std::uint64_t sentNs = monotonicNs();
            conn.send(op.line());
            const std::string line = conn.readLine();
            const std::uint64_t now = monotonicNs();
            const std::uint64_t rtt = now - sentNs;
            if (op.kind == Kind::Tick) {
                log.tickNs.push_back(rtt);
            } else {
                log.opNs.push_back(rtt);
                if (op.kind == Kind::Query)
                    log.queryNs.push_back(rtt);
            }
            handleReply(op, line, log, true);
            log.lastReplyNs = now;
        }
    }
    arrival();
}

/** STATS: key=value lines up to and including state_hash=. */
std::map<std::string, std::string>
readStats(Conn &conn, ConnLog &log)
{
    conn.send("STATS\n");
    std::map<std::string, std::string> stats;
    for (;;) {
        const std::string line = conn.readLine();
        if (line.rfind("ERR", 0) == 0) {
            ++log.failed;
            fail("STATS -> " + line);
        }
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos)
            stats[line.substr(0, eq)] = line.substr(eq + 1);
        if (line.rfind("state_hash=", 0) == 0)
            return stats;
    }
}

/** The server's socket byte counters, read on a quiet server. */
struct ServerBytes
{
    std::uint64_t in = 0;   //!< ref_net_bytes_in_total.
    std::uint64_t out = 0;  //!< ref_net_bytes_out_total.
    /** Bytes of the probe's own replies (METRICS and STATS). */
    std::uint64_t probeReplyBytes = 0;
};

/** The probe's requests: what it adds to the server's bytes in. */
constexpr std::uint64_t kProbeRequestBytes =
    sizeof("METRICS prom\n") - 1 + sizeof("STATS\n") - 1;

/**
 * Read the server's byte counters with `METRICS prom`. The
 * exposition has no end marker, so a STATS follows it, sent only
 * once the METRICS reply has started: when METRICS runs, the counters
 * then hold every earlier byte plus exactly its own request line, and
 * the client reads up to STATS' final state_hash= line.
 */
ServerBytes
readServerBytes(Conn &conn)
{
    const std::uint64_t readBefore = conn.readBytes();
    conn.send("METRICS prom\n");
    ServerBytes bytes;
    bool statsSent = false;
    for (;;) {
        const std::string line = conn.readLine();
        if (line.rfind("ERR", 0) == 0)
            fail("METRICS prom -> " + line);
        if (!statsSent) {
            conn.send("STATS\n");
            statsSent = true;
        }
        const auto tokens = split(line);
        if (tokens.size() == 2 &&
            tokens[0].rfind("ref_net_bytes_in_total", 0) == 0)
            bytes.in = std::stoull(tokens[1]);
        else if (tokens.size() == 2 &&
                 tokens[0].rfind("ref_net_bytes_out_total", 0) == 0)
            bytes.out = std::stoull(tokens[1]);
        else if (line.rfind("state_hash=", 0) == 0)
            break;
    }
    if (bytes.in == 0)
        fail("METRICS prom has no ref_net_bytes_in_total");
    bytes.probeReplyBytes = conn.readBytes() - readBefore;
    return bytes;
}

/** Bytes every connection has sent and received so far. */
std::pair<std::uint64_t, std::uint64_t>
clientBytes(const std::vector<std::unique_ptr<Conn>> &conns)
{
    std::uint64_t sent = 0, read = 0;
    for (const auto &conn : conns) {
        sent += conn->sentBytes();
        read += conn->readBytes();
    }
    return {sent, read};
}

/** user+sys CPU of @p pid in microseconds. */
double
processCpuUs(long pid)
{
    std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        fail("cannot read /proc/" + std::to_string(pid) + "/stat");
    const auto fields = split(text.substr(close + 1));
    // fields[0] is the state (field 3); utime/stime are 14 and 15.
    const double ticks =
        std::stod(fields.at(11)) + std::stod(fields.at(12));
    return ticks * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** Mean of @p samples (ns) in @p scale units. */
double
mean(const std::vector<std::uint64_t> &samples, double scale)
{
    if (samples.empty())
        fail("no latency samples");
    double sum = 0;
    for (const std::uint64_t ns : samples)
        sum += static_cast<double>(ns);
    return sum / static_cast<double>(samples.size()) / scale;
}

/** Nearest-rank percentile of @p samples (ns) in @p scale units. */
double
percentile(std::vector<std::uint64_t> samples, double q, double scale)
{
    if (samples.empty())
        fail("no latency samples");
    std::sort(samples.begin(), samples.end());
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(samples.size()))),
        1, samples.size());
    return static_cast<double>(samples[rank - 1]) / scale;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int port = 0;
    long serverPid = 0;
    std::string report;
    std::uint64_t rounds = 0;  //!< 0: rounds until --seconds pass.
    bool journal = false;
    bool restart = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fail("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::stoull(value());
        else if (arg == "--seconds")
            options.seconds = std::stod(value());
        else if (arg == "--port")
            options.port = std::stoi(value());
        else if (arg == "--server-pid")
            options.serverPid = std::stol(value());
        else if (arg == "--report")
            options.report = value();
        else if (arg == "--rounds")
            options.rounds = std::stoull(value());
        else if (arg == "--journal")
            options.journal = true;
        else if (arg == "--restart")
            options.restart = true;
        else
            fail("unknown argument " + arg);
    }
    if (options.workload.empty() || options.port == 0 ||
        options.report.empty())
        fail("need --workload, --port and --report");
    return options;
}

/** Run @p fn(c) for every connection on its own thread; join all,
 *  then rethrow the first failure. */
template <typename Fn>
void
onEachConnection(Fn &&fn)
{
    std::vector<std::exception_ptr> errors(kConnections);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c)
        threads.emplace_back([&, c] {
            try {
                fn(c);
            } catch (...) {
                errors[c] = std::current_exception();
            }
        });
    for (auto &thread : threads)
        thread.join();
    for (const auto &error : errors)
        if (error)
            std::rethrow_exception(error);
}

int
runMode(const Options &options)
{
    const Workload w = workloadByName(options.workload);
    const std::uint64_t connectNs = monotonicNs();
    std::vector<std::unique_ptr<Conn>> conns;
    std::vector<ConnStream> streams;
    std::vector<ConnLog> logs(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
        conns.push_back(std::make_unique<Conn>(options.port));
        streams.emplace_back(w, options.seed, c);
    }

    // Set-up: pools, then each connection's preload in turn, then one
    // TICK so the population is in a published epoch. Preloads run
    // one after the other, so the set-up's work does not depend on
    // how two of them interleave on the server's write lock.
    if (w.pooled)
        runOps(*conns[0], streams[0].poolCreates(), kPreloadWindow,
               logs[0]);
    for (std::size_t c = 0; c < kConnections; ++c)
        runOps(*conns[c], streams[c].preload(), kPreloadWindow, logs[c]);
    Op tick;
    tick.kind = Kind::Tick;
    runOps(*conns[0], {tick}, 1, logs[0]);
    for (ConnStream &stream : streams)
        stream.preloadTicked();
    const std::uint64_t setupDoneNs = monotonicNs();

    // Timed phase, between two reads of the server's byte counters.
    const ServerBytes bytesBefore = readServerBytes(*conns[0]);
    const auto clientBefore = clientBytes(conns);
    const double cpuBefore = processCpuUs(options.serverPid);
    const std::uint64_t startNs = monotonicNs();
    const std::uint64_t deadlineNs =
        startNs + static_cast<std::uint64_t>(options.seconds * 1e9);
    RssCheckpoint checkpoint(options.serverPid);
    std::mutex tickToken;
    onEachConnection([&](std::size_t c) {
        runTimed(*conns[c], streams[c], deadlineNs, options.rounds,
                 w.rssRounds, checkpoint, tickToken, logs[c]);
    });
    const double rssMb = checkpoint.rssMb();
    if (rssMb <= 0)
        fail("cannot read the server's VmHWM");
    const double cpuAfter = processCpuUs(options.serverPid);
    const auto clientAfter = clientBytes(conns);
    const ServerBytes bytesAfter = readServerBytes(*conns[0]);
    const std::uint64_t timedIn =
        bytesAfter.in - bytesBefore.in - kProbeRequestBytes;
    const std::uint64_t timedOut =
        bytesAfter.out - bytesBefore.out - bytesBefore.probeReplyBytes;
    std::uint64_t endNs = startNs;
    std::vector<std::uint64_t> opNs, tickNs, queryNs;
    for (const ConnLog &log : logs) {
        endNs = std::max(endNs, log.lastReplyNs);
        opNs.insert(opNs.end(), log.opNs.begin(), log.opNs.end());
        tickNs.insert(tickNs.end(), log.tickNs.begin(),
                      log.tickNs.end());
        queryNs.insert(queryNs.end(), log.queryNs.begin(),
                       log.queryNs.end());
    }
    const std::size_t timedOps = opNs.size() + tickNs.size();
    const double elapsed = static_cast<double>(endNs - startNs) / 1e9;

    // Checkpoint on a quiet server.
    ConnLog &log0 = logs[0];
    runOps(*conns[0], {tick}, 1, log0);
    std::vector<std::pair<std::string, Elasticities>> agents;
    for (const ConnStream &stream : streams) {
        const auto live = stream.liveAgents();
        agents.insert(agents.end(), live.begin(), live.end());
    }
    if (w.pooled) {
        std::vector<Op> queries;
        for (const auto &[name, e] : agents) {
            Op op;
            op.kind = Kind::Query;
            op.name = name;
            queries.push_back(std::move(op));
        }
        runOps(*conns[0], queries, kPreloadWindow, log0);
    } else {
        conns[0]->send("QUERY\n");
        ++log0.sent[static_cast<std::size_t>(Kind::Query)];
        const auto header = split(conns[0]->readLine());
        if (header.size() != 3 || header[0] != "SNAPSHOT")
            fail("QUERY did not answer with a SNAPSHOT header");
        const std::size_t rows = std::stoull(header[2].substr(7));
        for (std::size_t i = 0; i < rows; ++i) {
            const auto tokens = split(conns[0]->readLine());
            if (tokens.size() != 4 || tokens[0] != "SHARE")
                fail("malformed SNAPSHOT row");
            log0.shares.emplace_back(tokens[1],
                                     tokens[2] + " " + tokens[3]);
        }
    }
    const auto stats = readStats(*conns[0], log0);
    std::uint64_t attempted = 0, failed = 0;
    for (const ConnLog &log : logs) {
        for (const std::uint64_t n : log.sent)
            attempted += n;
        failed += log.failed;
    }
    attempted += 2 + 4;  // STATS, SHUTDOWN, two byte-counter probes.
    conns[0]->send("SHUTDOWN\n");
    if (conns[0]->readLine() != "OK shutdown")
        fail("SHUTDOWN not acknowledged");

    std::size_t minLive = 0, maxLive = 0;
    for (const ConnStream &stream : streams) {
        minLive += stream.minLive();
        maxLive += stream.maxLive();
    }
    std::ofstream report(options.report);
    report << "workload " << w.name << "\n"
           << "pooled " << (w.pooled ? 1 : 0) << "\n"
           << "journal " << (options.journal ? 1 : 0) << "\n"
           << "population " << minLive << " " << maxLive << "\n"
           << "failed " << failed << "\n";
    std::array<std::uint64_t, kKinds> sent{};
    for (const ConnLog &log : logs)
        for (std::size_t k = 0; k < kKinds; ++k)
            sent[k] += log.sent[k];
    for (std::size_t k = 0; k < kKinds; ++k)
        report << "sent " << kindName(static_cast<Kind>(k)) << " "
               << sent[k] << "\n";
    report << "epochs";
    for (const ConnLog &log : logs)
        for (const std::uint64_t e : log.epochs)
            report << " " << e;
    report << "\n";
    report << "timed_bytes " << timedIn << " " << timedOut << " "
           << clientAfter.first - clientBefore.first << " "
           << clientAfter.second - clientBefore.second << "\n";
    report << "tick_ns";
    for (const std::uint64_t ns : tickNs)
        report << " " << ns;
    report << "\n";
    for (const ConnLog &log : logs)
        report << log.queryLines;
    for (const auto &[name, e] : agents)
        report << "agent " << name << " " << e.e0 << " " << e.e1
               << "\n";
    for (const auto &[name, shares] : log0.shares)
        report << "share " << name << " " << shares << "\n";
    for (const auto &[key, value] : stats)
        report << "stat " << key << " " << value << "\n";
    report.close();
    if (!report)
        fail("cannot write " + options.report);

    const double serverCpuUs = cpuAfter - cpuBefore;
    std::cout.precision(12);
    std::cout << "{\"connect_mono_s\": "
              << static_cast<double>(connectNs) / 1e9
              << ", \"setup_done_mono_s\": "
              << static_cast<double>(setupDoneNs) / 1e9
              << ", \"timed_ops\": " << timedOps
              << ", \"elapsed_s\": " << elapsed
              << ", \"ops_per_s\": "
              << static_cast<double>(timedOps) / elapsed
              << ", \"tick_ms\": " << mean(tickNs, 1e6)
              << ", \"op_p50_us\": " << percentile(opNs, 0.5, 1e3)
              << ", \"op_mean_us\": " << mean(opNs, 1e3)
              << ", \"query_p50_us\": "
              << percentile(queryNs, 0.5, 1e3)
              << ", \"op_samples\": " << opNs.size()
              << ", \"tick_samples\": " << tickNs.size()
              << ", \"server_cpu_us_per_op\": "
              << serverCpuUs / static_cast<double>(timedOps)
              << ", \"server_rss_mb\": " << rssMb
              << ", \"bytes_per_op\": "
              << static_cast<double>(timedIn + timedOut) /
                     static_cast<double>(timedOps)
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << "}" << std::endl;
    return 0;
}

int
restartMode(const Options &options)
{
    std::vector<std::string> names;
    {
        std::ifstream in(options.report);
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("agent ", 0) == 0)
                names.push_back(split(line).at(1));
    }
    Conn conn(options.port);
    ConnLog log;
    const auto stats = readStats(conn, log);
    std::vector<Op> queries;
    for (const std::string &name : names) {
        Op op;
        op.kind = Kind::Query;
        op.name = name;
        queries.push_back(std::move(op));
    }
    runOps(conn, queries, kPreloadWindow, log);
    conn.send("SHUTDOWN\n");
    if (conn.readLine() != "OK shutdown")
        fail("SHUTDOWN not acknowledged");
    std::ofstream report(options.report, std::ios::app);
    report << "restart_stat state_hash " << stats.at("state_hash")
           << "\n";
    for (const auto &[name, shares] : log.shares)
        report << "restart_share " << name << " " << shares << "\n";
    report.close();
    if (!report)
        fail("cannot append to " + options.report);
    std::cout << "{\"attempted\": " << names.size() + 2
              << ", \"failed\": " << log.failed << "}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    try {
        const Options options = parseArgs(argc, argv);
        return options.restart ? restartMode(options)
                               : runMode(options);
    } catch (const std::exception &error) {
        std::cerr << "perfbench_client: " << error.what() << "\n";
        return 1;
    }
}
