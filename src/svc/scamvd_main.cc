/**
 * @file
 * scamvd: the long-running campaign daemon.
 *
 *   scamvd [--socket PATH] [--dir DIR] [--workers N] [--shards N]
 *          [--queue-max N]
 *
 * Flags override the SCAMV_SVC_* environment (see OPERATIONS.md for
 * the full tuning table and runbook).  SIGTERM/SIGINT trigger a
 * graceful drain: stop accepting, finish every in-flight campaign,
 * fold its checkpoint delta, then exit 0.  A client DRAIN request
 * does the same.  Campaign knobs that are env-resolved per process
 * (SCAMV_QCACHE_MB for the shared checkpoint, SCAMV_RETRY_MAX, ...)
 * are read from the daemon's environment; export-path variables
 * (SCAMV_METRICS, SCAMV_COVERAGE_FILE) should stay unset — each
 * campaign writes its own artifact set under its campaign directory.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "support/linecodec.hh"
#include "support/logging.hh"
#include "svc/svc.hh"

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--socket PATH] [--dir DIR]\n"
                 "          [--workers N] [--shards N] "
                 "[--queue-max N]\n"
                 "Defaults: SCAMV_SVC_* from the environment "
                 "(OPERATIONS.md).\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scamv;

    svc::ServiceConfig cfg = svc::ServiceConfig::fromEnv();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--socket" && val) {
            cfg.socketPath = val;
            ++i;
        } else if (arg == "--dir" && val) {
            cfg.dir = val;
            ++i;
        } else if (arg == "--workers" && val) {
            if (!linecodec::parseInt(val, cfg.workers))
                return usage(argv[0]);
            ++i;
        } else if (arg == "--shards" && val) {
            if (!linecodec::parseInt(val, cfg.shards))
                return usage(argv[0]);
            ++i;
        } else if (arg == "--queue-max" && val) {
            if (!linecodec::parseInt(val, cfg.queueMax))
                return usage(argv[0]);
            ++i;
        } else {
            return usage(argv[0]);
        }
    }
    if (cfg.workers < 1 || cfg.shards < 1 || cfg.queueMax < 1)
        return usage(argv[0]);

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
#ifdef SIGPIPE
    // A client vanishing mid-stream is its problem, not the fleet's.
    std::signal(SIGPIPE, SIG_IGN);
#endif

    svc::Service service(cfg);
    if (!svc::serveLoop(service, cfg.socketPath, g_stop))
        return 1;
    // The loop exits on SIGTERM/SIGINT or a DRAIN request; finish
    // whatever is still in flight before the Service destructor
    // stops the fleet.
    service.drain();
    inform("scamvd: drained, exiting");
    return 0;
}
