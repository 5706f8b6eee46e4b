/**
 * @file
 * Fig. 18: more uplink capacity -> lower downlink usage.
 *
 * Paper result: growing the uplink from 250 kbps to 4 Mbps lets Earth+
 * shave a further ~22 Mbps off the downlink (fresher/denser reference
 * updates -> fewer spuriously-changed tiles).
 *
 * The sweep varies the per-location daily uplink allowance; at the low
 * end updates are skipped (stale references), at the high end every
 * update goes through at a finer reference resolution.
 */

#include <iostream>

#include "bench_common.hh"

int
main()
{
    using namespace epbench;
    synth::DatasetSpec spec = benchPlanet(60.0);
    double scale = realByteScale(spec);

    struct Sweep
    {
        const char *label;
        double bytesPerDay;    // per-location uplink share
        int downsample;        // reference resolution improves with uplink
    };
    // 250 kbps shared across a Dove's ~12.7k downloadable locations/day
    // leaves ~1 KB/day/location; larger uplinks raise the share and
    // admit finer references.
    const Sweep sweeps[] = {
        {"62 kbps", 260.0, 32},
        {"250 kbps (Doves)", 1000.0, 16},
        {"1 Mbps", 4200.0, 16},
        {"4 Mbps", 16800.0, 8},
        {"16 Mbps", 67000.0, 4},
    };

    Table t("Fig. 18: downlink usage vs uplink capacity "
            "(paper: ~22 Mbps downlink saved going 250 kbps -> 4 Mbps)");
    t.setHeader({"Uplink", "Ref resolution", "Updates sent",
                 "Downlink (Mbps, real-scale)", "PSNR"});

    for (const Sweep &sw : sweeps) {
        core::SimParams params;
        params.system.gamma = 1.5;
        params.system.refDownsample = sw.downsample;
        params.uplinkBytesPerDay = sw.bytesPerDay;
        core::LocationSimulation sim(spec, 0, core::SystemKind::EarthPlus,
                                     params);
        core::SimSummary s = sim.run();
        if (s.processedCount == 0)
            continue;
        int updates = 0;
        for (const auto &c : s.captures)
            updates += c.uplinkBytes > 0.0 ? 1 : 0;
        double mbps = s.requiredDownlinkMbps(600.0, scale);
        t.addRow({sw.label, Table::num(sw.downsample, 0) + "x/dim",
                  Table::num(updates, 0), Table::num(mbps, 2),
                  Table::num(s.meanPsnr, 2)});
    }
    t.print(std::cout);
    return 0;
}
