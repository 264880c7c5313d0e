/**
 * @file
 * seer-pulse: operator CLI for the live telemetry plane (DESIGN.md
 * §16). Four commands:
 *
 *     seer-pulse scrape HOST:PORT [PATH]      # GET one endpoint
 *     seer-pulse watch HOST:PORT [options]    # poll /healthz
 *     seer-pulse rules-check RULES_FILE       # validate a rule pack
 *     seer-pulse replay HEALTH_JSONL [opts]   # offline alert replay
 *
 * `scrape` fetches one document (default /metrics) from a monitor's
 * embedded endpoint and prints the body; non-200 exits nonzero, so it
 * doubles as a smoke probe in CI. `watch` polls /healthz, printing one
 * status line per poll, and exits nonzero while the monitor reports
 * degraded (--count bounds the polls for scripting). `rules-check`
 * parses an alert-rules file with exactly the parser the monitor uses
 * and prints the normalized pack. `replay` runs the rate + alert
 * engines over a recorded health-snapshot stream (the JSONL the
 * monitor writes) and prints the ALERT records a live run with those
 * rules would have emitted — rule packs can be rehearsed against
 * yesterday's incident before they page anyone.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/http_server.hpp"
#include "obs/pulse.hpp"

namespace {

using namespace cloudseer;

int
usage(std::ostream &out, int status)
{
    out << "usage:\n"
           "  seer-pulse scrape HOST:PORT [PATH]\n"
           "      GET PATH (default /metrics) and print the body;\n"
           "      exits 1 on a non-200 status, 2 on connect failure\n"
           "  seer-pulse watch HOST:PORT [--interval SEC] [--count N]\n"
           "      poll /healthz, one line per poll; with --count,\n"
           "      exits 1 when the final poll reported degraded\n"
           "  seer-pulse rules-check RULES_FILE\n"
           "      parse an alert-rules file and print the pack\n"
           "  seer-pulse replay HEALTH_JSONL [--rules FILE] "
           "[--window SEC] [--alpha A]\n"
           "      run the alert engine over recorded snapshots and\n"
           "      print the ALERT records it emits\n";
    return status;
}

/** Split "host:port"; false on a malformed endpoint. */
bool
splitEndpoint(const std::string &arg, std::string &host, int &port)
{
    std::size_t colon = arg.rfind(':');
    if (colon == std::string::npos || colon + 1 >= arg.size())
        return false;
    host = arg.substr(0, colon);
    port = std::atoi(arg.c_str() + colon + 1);
    return !host.empty() && port > 0 && port <= 65535;
}

int
cmdScrape(const std::vector<std::string> &args)
{
    if (args.empty() || args.size() > 2)
        return usage(std::cerr, 2);
    std::string host;
    int port = 0;
    if (!splitEndpoint(args[0], host, port)) {
        std::cerr << "seer-pulse: bad endpoint '" << args[0]
                  << "' (want HOST:PORT)\n";
        return 2;
    }
    std::string path = args.size() == 2 ? args[1] : "/metrics";
    int status = 0;
    std::string body;
    if (!common::httpGet(host, static_cast<std::uint16_t>(port), path,
                         status, body)) {
        std::cerr << "seer-pulse: cannot reach " << args[0] << path
                  << "\n";
        return 2;
    }
    std::fputs(body.c_str(), stdout);
    if (status != 200) {
        std::cerr << "seer-pulse: " << path << " returned " << status
                  << "\n";
        return 1;
    }
    return 0;
}

int
cmdWatch(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage(std::cerr, 2);
    std::string host;
    int port = 0;
    if (!splitEndpoint(args[0], host, port)) {
        std::cerr << "seer-pulse: bad endpoint '" << args[0]
                  << "' (want HOST:PORT)\n";
        return 2;
    }
    double interval = 2.0;
    long count = 0; // 0 = forever
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--interval" && i + 1 < args.size())
            interval = std::atof(args[++i].c_str());
        else if (args[i] == "--count" && i + 1 < args.size())
            count = std::atol(args[++i].c_str());
        else
            return usage(std::cerr, 2);
    }

    bool lastDegraded = false;
    double lastTime = -1.0;
    bool warnedStale = false;
    for (long polls = 0; count == 0 || polls < count; ++polls) {
        if (polls > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::max(interval, 0.01)));
        }
        int status = 0;
        std::string body;
        if (!common::httpGet(host, static_cast<std::uint16_t>(port),
                             "/healthz", status, body)) {
            std::printf("unreachable %s\n", args[0].c_str());
            std::fflush(stdout);
            lastDegraded = true;
            continue;
        }
        // The snapshot clock freezing across a full poll interval
        // means the monitor answered but published nothing new — an
        // idle or wedged pipeline looks exactly like a healthy quiet
        // one otherwise. Say so once per stale stretch (stderr, so
        // scripted consumers of the poll lines are untouched).
        double time = 0.0;
        std::size_t at = body.find("\"time\":");
        if (at != std::string::npos)
            time = std::atof(body.c_str() + at + 7);
        if (polls > 0 && time == lastTime) {
            if (!warnedStale) {
                std::fprintf(stderr,
                             "seer-pulse: /healthz time stuck at %g "
                             "for a full poll interval; monitor is "
                             "idle or wedged\n",
                             time);
                warnedStale = true;
            }
        } else {
            warnedStale = false;
        }
        lastTime = time;
        bool degraded =
            body.find("\"status\":\"degraded\"") != std::string::npos;
        lastDegraded = degraded;
        // One compact line per poll: verdict plus the raw body (the
        // window counters embedded in it are the interesting part).
        std::printf("%s %s\n", degraded ? "DEGRADED" : "ok",
                    body.c_str());
        std::fflush(stdout);
    }
    return lastDegraded ? 1 : 0;
}

int
cmdRulesCheck(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage(std::cerr, 2);
    std::ifstream in(args[0]);
    if (!in) {
        std::cerr << "seer-pulse: cannot open " << args[0] << "\n";
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<obs::AlertRule> rules;
    std::string error;
    if (!obs::parseAlertRules(text.str(), rules, error)) {
        std::cerr << "seer-pulse: " << args[0] << ": " << error << "\n";
        return 1;
    }
    std::printf("%zu rule%s ok\n", rules.size(),
                rules.size() == 1 ? "" : "s");
    for (const obs::AlertRule &rule : rules) {
        std::printf(
            "  %-24s %s%s > %g pending=%gs hold=%gs resolve=%g\n",
            rule.name.c_str(), obs::pulseSignalName(rule.signal),
            rule.useEwma ? " (ewma)" : "", rule.threshold,
            rule.pendingSeconds, rule.holdSeconds, rule.resolveRatio);
    }
    return 0;
}

// --- replay: HEALTH JSONL → HealthSample → alert engine ---------------

int
cmdReplay(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage(std::cerr, 2);
    obs::PulseConfig config;
    config.enabled = true;
    std::string path = args[0];
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--rules" && i + 1 < args.size()) {
            std::ifstream rules_in(args[++i]);
            if (!rules_in) {
                std::cerr << "seer-pulse: cannot open " << args[i]
                          << "\n";
                return 2;
            }
            std::ostringstream text;
            text << rules_in.rdbuf();
            std::string error;
            if (!obs::parseAlertRules(text.str(), config.rules,
                                      error)) {
                std::cerr << "seer-pulse: " << args[i] << ": " << error
                          << "\n";
                return 1;
            }
        } else if (args[i] == "--window" && i + 1 < args.size()) {
            config.windowSeconds = std::atof(args[++i].c_str());
        } else if (args[i] == "--alpha" && i + 1 < args.size()) {
            config.ewmaAlpha = std::atof(args[++i].c_str());
        } else {
            return usage(std::cerr, 2);
        }
    }
    std::ifstream in(path);
    if (!in) {
        std::cerr << "seer-pulse: cannot open " << path << "\n";
        return 2;
    }

    obs::PulseEngine engine(config);
    std::string line;
    std::size_t snapshots = 0;
    std::size_t alerts = 0;
    while (std::getline(in, line)) {
        if (!obs::HealthSample::isJson(line))
            continue;
        ++snapshots;
        engine.observe(obs::HealthSample::fromJson(line));
        for (const std::string &alert : engine.drainAlertLines()) {
            ++alerts;
            std::printf("%s\n", alert.c_str());
        }
    }
    if (snapshots == 0) {
        std::cerr << "seer-pulse: no HEALTH records in " << path
                  << "\n";
        return 1;
    }
    std::fprintf(stderr, "replayed %zu snapshots, %zu alert records\n",
                 snapshots, alerts);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "--help" || command == "-h")
        return usage(std::cout, 0);
    if (command == "scrape")
        return cmdScrape(args);
    if (command == "watch")
        return cmdWatch(args);
    if (command == "rules-check")
        return cmdRulesCheck(args);
    if (command == "replay")
        return cmdReplay(args);
    std::cerr << "seer-pulse: unknown command '" << command << "'\n";
    return usage(std::cerr, 2);
}
