/**
 * @file
 * Tests for the orbit substrate: link budgets, contact schedules and
 * the Appendix-A storage model.
 */

#include <gtest/gtest.h>

#include "orbit/contact.hh"
#include "orbit/links.hh"
#include "orbit/storage.hh"
#include "util/units.hh"

using namespace earthplus;
using namespace earthplus::orbit;

TEST(LinkBudgetTest, DovesUplinkNumbers)
{
    // 250 kbps x 600 s / 8 = 18.75 MB per contact; x7 = 131.25 MB/day.
    LinkBudget uplink(LinkSpec{250e3, 600.0, 7});
    EXPECT_NEAR(uplink.bytesPerContact(), 18.75e6, 1.0);
    EXPECT_NEAR(uplink.bytesPerDay(), 131.25e6, 10.0);
}

TEST(LinkBudgetTest, DovesDownlinkNumbers)
{
    LinkBudget downlink(LinkSpec{200e6, 600.0, 7});
    EXPECT_NEAR(downlink.bytesPerContact(), 15e9, 1.0);
}

TEST(DailyByteBudgetTest, ConsumeAndRenew)
{
    DailyByteBudget b(100.0);
    EXPECT_TRUE(b.tryConsume(60.0));
    EXPECT_DOUBLE_EQ(b.remaining(), 40.0);
    EXPECT_FALSE(b.tryConsume(50.0));
    EXPECT_DOUBLE_EQ(b.remaining(), 40.0); // failed consume unchanged
    EXPECT_TRUE(b.tryConsume(40.0));
    b.startDay();
    EXPECT_DOUBLE_EQ(b.remaining(), 100.0);
}

TEST(ContactScheduleTest, NextContacts)
{
    ContactSchedule s(4); // contacts at 0, 0.25, 0.5, 0.75, 1.0 ...
    EXPECT_DOUBLE_EQ(s.nextContactAtOrAfter(0.3), 0.5);
    EXPECT_DOUBLE_EQ(s.nextContactAtOrAfter(0.5), 0.5);
}

TEST(StorageModelTest, Fig15OrderingAndScale)
{
    StorageModel model;
    // Paper Fig. 15: SatRoI ~30 GB, Kodan ~255 GB, Earth+ ~24 GB.
    auto earthPlus = model.earthPlus(0.25);
    auto satRoI = model.satRoI(0.9);
    auto kodan = model.kodan();

    double egb = units::bytesToGB(earthPlus.totalBytes());
    double sgb = units::bytesToGB(satRoI.totalBytes());
    double kgb = units::bytesToGB(kodan.totalBytes());

    EXPECT_LT(egb, sgb);
    EXPECT_LT(sgb, kgb);
    // Kodan must buffer ~8x more than the downloadable volume.
    EXPECT_GT(kgb / sgb, 5.0);
    // All fit in (or near) the 360 GB Table-1 budget except nothing.
    EXPECT_LT(kgb, 360.0);
    EXPECT_LT(egb, 40.0);
}

TEST(StorageModelTest, EarthPlusReferenceOverheadIsSmall)
{
    // Appendix A: cached references cost at most ~9% of the space a
    // full captured-image store would use.
    StorageModel model;
    auto ep = model.earthPlus(0.25);
    double fullCaptureBytes = units::mbToBytes(
        StorageModel::kContactsKept * StorageModel::kMbPerKm2 *
        StorageModel::kAreaPerContactKm2);
    EXPECT_LT(ep.referenceBytes, 0.1 * fullCaptureBytes);
    EXPECT_GT(ep.referenceBytes, 0.0);
}

TEST(StorageModelTest, ScalesWithDownloadedFraction)
{
    StorageModel model;
    auto lean = model.earthPlus(0.1);
    auto heavy = model.earthPlus(0.9);
    EXPECT_LT(lean.capturedBytes, heavy.capturedBytes);
    EXPECT_DOUBLE_EQ(lean.referenceBytes, heavy.referenceBytes);
}
