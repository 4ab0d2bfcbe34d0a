/**
 * @file
 * scamvd: a long-running campaign service with a shared
 * cross-campaign query cache.
 *
 * PRs 1-8 built a deterministic campaign engine that still only runs
 * one-shot CLI campaigns.  This module adds the serving leg of the
 * roadmap's north star: a daemon (`scamvd`) that accepts many
 * campaign submissions over a local stream socket, orders them in a
 * FIFO-with-priority queue, multiplexes them over a bounded worker
 * fleet running the existing shard machinery (`shard::planShard` +
 * `shard::runWorker` + `shard::mergeCampaign`), and streams
 * per-campaign progress back to attached clients.
 *
 * The service owns a shared qcache checkpoint that acts as a
 * cross-campaign memo table: each dispatched campaign's shard
 * directories are seeded with a copy of the current checkpoint (the
 * worker's private cache loads it warm, see shard/worker.cc), and
 * after the coordinator merge the campaign's rebuilt checkpoint is
 * folded back into the service checkpoint *in submission order*
 * (keep-first dedup, `shard::mergeQcacheFiles`).  Because warm and
 * cold campaigns are byte-identical (ARCHITECTURE.md, invariant 5),
 * a campaign run through the service produces metrics / coverage /
 * db / stats / findings artifacts byte-identical to the same
 * campaign run standalone — invariant 10, proven by
 * tests/test_svc.cc across {1,2} concurrent submissions x
 * {cold, warm} x fault-plan-all.
 *
 * Wire protocol ("scamv-rpc-v1"): length-prefixed text frames with
 * the shard-artifact codec discipline — space-separated
 * percent-escaped fields, a trailing fnv1a checksum per frame — so
 * a damaged or truncated frame is detected, never half-parsed.  See
 * OPERATIONS.md for the operator's view (env vars, lifecycle,
 * drain/restart runbook).
 */

#ifndef SCAMV_SVC_SVC_HH
#define SCAMV_SVC_SVC_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hh"

namespace scamv::svc {

/*
 * ------------------------------------------------------------------
 * scamv-rpc-v1 frame codec
 * ------------------------------------------------------------------
 */

/** Protocol version token exchanged in HELLO frames. */
inline constexpr const char *kRpcVersion = "scamv-rpc-v1";

/** Upper bound on a frame payload (a frame is one request line). */
inline constexpr std::size_t kMaxFrameBytes = std::size_t(1) << 20;

/** One protocol frame: a type tag plus string arguments. */
struct Frame {
    std::string type;
    std::vector<std::string> args;

    bool operator==(const Frame &) const = default;
};

/**
 * Encode a frame payload: space-separated percent-escaped fields
 * (type first) ending in an fnv1a checksum field — one line, no
 * trailing newline, the shard-artifact line discipline.
 */
std::string encodePayload(const Frame &frame);

/**
 * Decode a frame payload.  Checksum-validates the line and
 * percent-unescapes every field.
 * @return nullopt when the checksum is missing/wrong or a field is
 * malformed (the frame is dropped whole, never half-parsed).
 */
std::optional<Frame> decodePayload(std::string_view payload);

/**
 * Encode a wire frame: an 8-hex-digit payload length plus '\n',
 * followed by the payload bytes.
 */
std::string encodeFrame(const Frame &frame);

/** Incremental wire-decode outcome. */
enum class FrameStatus {
    Ok,       ///< a frame was decoded; `consumed` bytes were used
    NeedMore, ///< the buffer holds a frame prefix; read more bytes
    Bad,      ///< the stream is damaged (bad prefix, length or body)
};

/**
 * Decode one wire frame from the front of `buf`.
 * @param out the decoded frame (valid only on Ok).
 * @param consumed bytes to drop from the buffer (valid only on Ok).
 */
FrameStatus decodeFrame(std::string_view buf, Frame &out,
                        std::size_t &consumed);

/*
 * ------------------------------------------------------------------
 * Submissions
 * ------------------------------------------------------------------
 */

/**
 * One campaign submission: the `shard::defaultWorkload` family
 * (the same campaign shape the scamv_worker / scamv_merge CLI and
 * the ShardTest suite run) plus failure-model and triage knobs.
 */
struct SubmissionSpec {
    int programs = 8;
    int tests = 3;
    std::uint64_t seed = 7;
    bool adaptive = false;
    bool line = false;
    /** Higher dispatches first; FIFO within a priority. */
    int priority = 0;
    /** Worker slices for this campaign (0: service default). */
    int shards = 0;
    /** Fault plan (0 rate: disabled; sites as in SCAMV_FAULT_PLAN). */
    double faultRate = 0.0;
    std::string faultSites;
    /** Stage retries after injected faults (-1: SCAMV_RETRY_MAX). */
    int retryMax = -1;
    bool triage = false;
    bool minimize = false;
    /**
     * Corpus campaign: compile the `.sc` kernels of this directory
     * (src/front) and validate them with shard::corpusWorkload
     * instead of the generated default workload.  Empty: generated
     * workload.  `line` is ignored for corpus campaigns (they use
     * Mline support coverage unconditionally).
     */
    std::string corpusDir;

    bool operator==(const SubmissionSpec &) const = default;
};

/** Serialize a spec as SUBMIT frame arguments ("key=value" fields). */
std::vector<std::string> specToArgs(const SubmissionSpec &spec);

/**
 * Parse SUBMIT frame arguments.  Strict: unknown keys, malformed
 * values and out-of-range settings are rejected.
 * @return nullopt with `error` set on rejection.
 */
std::optional<SubmissionSpec>
specFromArgs(const std::vector<std::string> &args, std::string &error);

/** @return the spec's fault plan (disabled when rate is 0). */
faults::FaultPlan faultPlanFor(const SubmissionSpec &spec);

/**
 * The pipeline config a submission runs: `shard::defaultWorkload`
 * with the spec's failure-model and triage knobs applied.  Both the
 * service fleet and a standalone reference run build campaigns
 * through this one function — which is what makes the byte-identity
 * invariant testable (tests/test_svc.cc, CI svc-equivalence).
 */
core::PipelineConfig campaignConfig(const SubmissionSpec &spec);

/** Submission lifecycle states (OPERATIONS.md state machine). */
enum class SubmissionState {
    Queued,  ///< accepted, waiting for fleet capacity
    Running, ///< shard slices executing on the fleet
    Merging, ///< coordinator fold + checkpoint fold
    Done,    ///< artifacts written, delta folded
    Failed,  ///< isolated failure; daemon and queue unaffected
};

/** @return the canonical lowercase state name. */
const char *stateName(SubmissionState state);

/*
 * ------------------------------------------------------------------
 * Submission queue
 * ------------------------------------------------------------------
 */

/**
 * FIFO-with-priority queue of submission ids: `pop` returns the
 * highest priority first and FIFO (ascending id) within a priority.
 * Deterministic: the pop order is a pure function of the push
 * sequence.  Not thread-safe; the service guards it with its own
 * mutex.
 */
class SubmissionQueue
{
  public:
    void push(std::uint64_t id, int priority);

    /** Remove and return the next id, or nullopt when empty. */
    std::optional<std::uint64_t> pop();

    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }

  private:
    struct Entry {
        std::uint64_t id;
        int priority;
    };
    std::vector<Entry> entries;
};

/*
 * ------------------------------------------------------------------
 * Service
 * ------------------------------------------------------------------
 */

/** Service configuration (see OPERATIONS.md for the env table). */
struct ServiceConfig {
    /** Service state root: campaign dirs + the shared checkpoint. */
    std::string dir = "scamv-svc";
    /** Listening socket path (socket front-end only). */
    std::string socketPath = "scamv-svc/scamvd.sock";
    /** Worker fleet size (concurrent shard slices). */
    int workers = 2;
    /** Default shard count per campaign. */
    int shards = 2;
    /** Max queued-or-running submissions before accept rejects. */
    int queueMax = 64;

    /**
     * Config from SCAMV_SVC_DIR / SCAMV_SVC_SOCKET /
     * SCAMV_SVC_WORKERS / SCAMV_SVC_SHARDS / SCAMV_SVC_QUEUE_MAX
     * (validated via support/env; unset keeps the defaults above).
     */
    static ServiceConfig fromEnv();
};

/** Accept verdict for one submission. */
struct SubmitResult {
    bool accepted = false;
    std::uint64_t id = 0;
    std::string error;
};

/** Point-in-time view of one submission (STATUS/PROGRESS frames). */
struct SubmissionStatus {
    SubmissionState state = SubmissionState::Queued;
    int programsDone = 0;
    int programsTotal = 0;
    /** Post-merge campaign results (0 until Done). */
    std::int64_t counterexamples = 0;
    std::int64_t coveredClasses = 0;
    std::int64_t findings = 0;
    std::string dir;
    std::string error;
};

/**
 * The campaign service.  Usable as a library (tests, bench) or
 * behind the socket front-end (`serveLoop`, scamvd).  Construction
 * starts the worker fleet and the merge/fold thread; destruction
 * stops accepting, waits for in-flight campaigns and joins the
 * threads.
 *
 * Concurrency: `submit`/`status`/`wait`/`drain` are thread-safe.
 * Campaign artifacts never share mutable state across submissions
 * (the shard machinery's per-task registries and shard-local state),
 * so concurrent campaigns cannot perturb each other's bytes; the
 * only cross-campaign state is the shared checkpoint, mutated only
 * by the merge thread's submission-ordered folds.
 */
class Service
{
  public:
    explicit Service(const ServiceConfig &config);
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Accept a submission: validate the spec, fire the
     * `svc_accept_drop` fault site (retried up to the spec's retry
     * budget; a drop on every attempt rejects, counted
     * `svc.accept_drop`), enqueue and return the assigned id.
     */
    SubmitResult submit(const SubmissionSpec &spec);

    /** @return the submission's current view, if the id exists. */
    std::optional<SubmissionStatus> status(std::uint64_t id) const;

    /**
     * Block until the submission reaches a terminal state.
     * @return true when it finished Done.
     */
    bool wait(std::uint64_t id);

    /**
     * Graceful drain: stop accepting, then block until every
     * accepted submission is terminal.  Idempotent.
     */
    void drain();

    /** @return the service state root directory. */
    const std::string &dir() const { return cfg.dir; }

    /** @return the campaign directory for submission `id`. */
    std::string campaignDir(std::uint64_t id) const;

    /** @return the shared qcache checkpoint path. */
    std::string checkpointPath() const;

  private:
    struct Impl;
    ServiceConfig cfg;
    std::unique_ptr<Impl> impl;
};

/*
 * ------------------------------------------------------------------
 * Socket front-end
 * ------------------------------------------------------------------
 */

/**
 * Serve `service` on a Unix stream socket until `stop` becomes true
 * (SIGTERM sets it in scamvd) or a client completes a DRAIN request
 * (which drains the service, then sets `stop` itself).  Each
 * connection is handled on its own thread; a damaged frame closes
 * its connection (counted `svc.rpc_bad_frames`), never the daemon.
 * @return false when the socket cannot be created or bound.
 */
bool serveLoop(Service &service, const std::string &socket_path,
               std::atomic<bool> &stop);

/**
 * Minimal client for scamv-submit and tests: connect, exchange
 * frames.  Not thread-safe.
 */
class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect and HELLO-handshake.  @return success. */
    bool connectTo(const std::string &socket_path);

    /** Send one frame.  @return success. */
    bool send(const Frame &frame);

    /** Receive one frame (blocking). */
    std::optional<Frame> recv();

    /** send + recv. */
    std::optional<Frame> call(const Frame &frame);

    void close();

  private:
    int fd = -1;
    std::string buf;
};

} // namespace scamv::svc

#endif // SCAMV_SVC_SVC_HH
