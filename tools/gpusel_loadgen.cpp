// gpusel_loadgen: open-loop load sweep against the selection service
// (docs/service.md "Load generation").
//
// Sweeps a list of offered arrival rates, runs each against a fresh
// simulated device, prints a summary table, and writes the sweep as the
// bench-results JSON that tools/check_bench_regression.py's SLO gate
// consumes (--server-current / --server-baseline).  Optionally exports a
// chrome trace of the nominal run with the service telemetry tracks
// (queue depth, admission decisions).
//
// Examples:
//   gpusel_loadgen --rates 500,2000,8000 --out results/BENCH_server.json
//   gpusel_loadgen --rate 2000 --deadline-ns 4e6 --degrade-ns 1e6
//       --trace server_trace.json

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "server/loadgen.hpp"
#include "simt/arch.hpp"
#include "simt/trace.hpp"

namespace {

struct Options {
    std::vector<double> rates;       // requests per simulated second
    double nominal = -1.0;           // slo_nominal marker; default lowest rate
    std::size_t requests = 300;
    std::size_t n = 65536;
    int tenants = 4;
    double deadline_ns = 0.0;
    double degrade_ns = 0.0;
    std::size_t queue_cap = 256;
    std::size_t tenant_cap = 64;
    std::size_t max_batch = 16;
    int streams = 0;
    std::uint64_t seed = 42;
    std::string out;    // JSON path; empty = stdout
    std::string trace;  // chrome-trace path; empty = none
};

void usage() {
    std::cout <<
        "gpusel_loadgen -- open-loop load sweep against the selection service\n"
        "  --rates R1,R2,...    offered rates [req/sim-s] (default 500,1000,2000,4000,8000)\n"
        "  --rate R             single rate (shorthand for --rates R)\n"
        "  --nominal R          rate tagged slo_nominal=1 (default: lowest rate)\n"
        "  --requests N         requests per rate (default 300)\n"
        "  --n N                elements per request (default 65536)\n"
        "  --tenants T          fair-queuing tenants (default 4)\n"
        "  --deadline-ns D      per-request deadline budget, 0 = none (default 0)\n"
        "  --degrade-ns D       queue delay that triggers degradation, 0 = never\n"
        "  --queue-cap N        global queue capacity (default 256)\n"
        "  --tenant-cap N       per-tenant queue capacity (default 64)\n"
        "  --max-batch N        requests coalesced per dispatch round (default 16)\n"
        "  --streams S          stream-fan width, 0 = GPUSEL_STREAMS/auto\n"
        "  --seed S             RNG seed (default 42)\n"
        "  --out FILE           write sweep JSON here (default stdout)\n"
        "  --trace FILE         chrome trace of the nominal run\n";
}

std::vector<double> parse_rates(const std::string& s) {
    std::vector<double> rates;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        if (!tok.empty()) rates.push_back(std::stod(tok));
    }
    return rates;
}

bool parse(int argc, char** argv, Options& opt) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else if (a == "--rates") {
            opt.rates = parse_rates(next());
        } else if (a == "--rate") {
            opt.rates = {std::stod(next())};
        } else if (a == "--nominal") {
            opt.nominal = std::stod(next());
        } else if (a == "--requests") {
            opt.requests = std::stoul(next());
        } else if (a == "--n") {
            opt.n = std::stoul(next());
        } else if (a == "--tenants") {
            opt.tenants = std::stoi(next());
        } else if (a == "--deadline-ns") {
            opt.deadline_ns = std::stod(next());
        } else if (a == "--degrade-ns") {
            opt.degrade_ns = std::stod(next());
        } else if (a == "--queue-cap") {
            opt.queue_cap = std::stoul(next());
        } else if (a == "--tenant-cap") {
            opt.tenant_cap = std::stoul(next());
        } else if (a == "--max-batch") {
            opt.max_batch = std::stoul(next());
        } else if (a == "--streams") {
            opt.streams = std::stoi(next());
        } else if (a == "--seed") {
            opt.seed = std::stoull(next());
        } else if (a == "--out") {
            opt.out = next();
        } else if (a == "--trace") {
            opt.trace = next();
        } else {
            std::cerr << "unknown option: " << a << "\n";
            return false;
        }
    }
    if (opt.rates.empty()) opt.rates = {500, 1000, 2000, 4000, 8000};
    if (opt.nominal < 0.0) opt.nominal = *std::min_element(opt.rates.begin(), opt.rates.end());
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace gpusel;
    Options opt;
    try {
        if (!parse(argc, argv, opt)) return 2;
    } catch (const std::exception& e) {
        std::cerr << "bad arguments: " << e.what() << "\n";
        return 2;
    }

    server::ServerConfig scfg;
    scfg.queue_capacity = opt.queue_cap;
    scfg.tenant_queue_capacity = opt.tenant_cap;
    scfg.max_batch = opt.max_batch;
    scfg.streams = opt.streams;
    scfg.default_deadline_ns = 0.0;
    scfg.degrade_queue_delay_ns = opt.degrade_ns;

    server::LoadgenConfig lcfg;
    lcfg.requests = opt.requests;
    lcfg.n = opt.n;
    lcfg.tenants = opt.tenants;
    lcfg.deadline_ns = opt.deadline_ns;
    lcfg.seed = opt.seed;

    std::vector<server::LoadgenResult> sweep;
    std::cerr << "rate_rps  completed  shed  ddl_miss  degraded    p50_ms    p99_ms  thrpt_rps\n";
    for (const double rate : opt.rates) {
        // Fresh device per point: deterministic, no cross-point warmth.
        simt::Device dev(simt::arch_v100());
        lcfg.rate_rps = rate;
        const bool nominal = rate == opt.nominal;
        server::ServerConfig point_cfg = scfg;
        point_cfg.record_trace = nominal && !opt.trace.empty();
        server::LoadgenTrace trace;
        const server::LoadgenResult r =
            server::run_loadgen(dev, point_cfg, lcfg, point_cfg.record_trace ? &trace : nullptr);
        sweep.push_back(r);
        std::cerr << rate << "  " << r.completed << "  " << r.shed << "  "
                  << r.deadline_rejected + r.deadline_aborted << "  " << r.degraded << "  "
                  << r.p50_ns / 1e6 << "  " << r.p99_ns / 1e6 << "  " << r.throughput_rps
                  << "\n";
        if (point_cfg.record_trace) {
            std::ofstream ts(opt.trace);
            if (!ts) {
                std::cerr << "cannot open " << opt.trace << " for writing\n";
                return 1;
            }
            simt::write_chrome_trace(ts, dev.profiles(), dev.planner_log(), trace.counters,
                                     trace.instants);
        }
    }

    if (opt.out.empty()) {
        server::write_loadgen_json(std::cout, sweep, opt.nominal);
    } else {
        std::ofstream os(opt.out);
        if (!os) {
            std::cerr << "cannot open " << opt.out << " for writing\n";
            return 1;
        }
        server::write_loadgen_json(os, sweep, opt.nominal);
    }
    return 0;
}
