/**
 * @file
 * Fig. 19: compression ratio vs. constellation size.
 *
 * Paper result: growing the constellation from 1 to 16 satellites
 * raises Earth+'s compression ratio from ~3x to ~10x (fresher
 * references -> fewer changed tiles), vs 1x for downloading
 * everything. The paper computes the ratio from the average changed-
 * area fraction (its footnote 8); we do the same.
 */

#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "util/parallel.hh"
#include "util/stats.hh"

int
main()
{
    using namespace epbench;

    Table t("Fig. 19: compression ratio vs constellation size "
            "(paper: 3x -> 10x from 1 to 16 satellites)");
    t.setHeader({"Satellites", "Captures", "Mean ref age (d)",
                 "Changed tiles", "Compression ratio"});
    t.addRow({"Download everything", "-", "-", "100.0%", "1.0x"});

    // The constellation sizes are independent simulations: fan them
    // across the pool as one batch and report the wall-clock win.
    const std::vector<int> satCounts = {1, 2, 4, 8, 16};
    std::vector<core::BatchSimJob> jobs;
    for (int sats : satCounts) {
        core::BatchSimJob job;
        job.spec = benchPlanet(360.0);
        // Per-satellite revisit of ~12 days (each satellite tasked to
        // revisit its own swath); more satellites -> denser coverage.
        job.spec.satelliteCount = sats;
        job.spec.revisitDays = 12.0;
        job.params.system.gamma = 1.5;
        // Pure reference-based behaviour (no monthly full downloads),
        // matching the paper's changed-area-based estimate.
        job.params.system.guaranteedPeriodDays = 1e9;
        job.kind = core::SystemKind::EarthPlus;
        jobs.push_back(job);
    }
    auto t0 = std::chrono::steady_clock::now();
    std::vector<core::SimSummary> summaries =
        core::runSimulationsBatch(jobs);
    double batchSec = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    for (size_t i = 0; i < satCounts.size(); ++i) {
        int sats = satCounts[i];
        const core::SimSummary &s = summaries[i];
        if (s.processedCount <= 1)
            continue;
        // Exclude the bootstrap full download from the changed-area
        // average, as the paper's steady-state estimate does.
        RunningStats frac;
        for (const auto &c : s.captures)
            if (!c.dropped && !c.fullDownload)
                frac.add(c.downloadedTileFraction);
        if (frac.count() == 0)
            continue;
        double ratio = 1.0 / std::max(frac.mean(), 1e-3);
        t.addRow({Table::num(sats, 0), Table::num(frac.count(), 0),
                  Table::num(s.meanReferenceAgeDays, 1),
                  Table::pct(frac.mean()), Table::num(ratio, 1) + "x"});
    }
    t.print(std::cout);
    std::cerr << "batch of " << jobs.size() << " simulations in "
              << Table::num(batchSec, 1) << " s on "
              << util::ThreadPool::global().threadCount()
              << " thread(s) (EARTHPLUS_THREADS)\n";
    return 0;
}
