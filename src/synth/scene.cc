#include "synth/scene.hh"

#include <algorithm>
#include <cmath>

#include "synth/noise.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace earthplus::synth {

namespace {

constexpr double kDaysPerYear = 365.0;
/** Day-of-year of peak snow extent (mid January). */
constexpr double kSnowPeakDoy = 15.0;
/**
 * Snow reflectance in cold-cloud (SWIR) bands. Snow is darker than in
 * the visible but clearly brighter than heavy cloud (~0.18), which is
 * what lets cloud detectors separate the two.
 */
constexpr double kSnowSwirValue = 0.35;
/** Amplitude of one discrete change event's texture delta. */
constexpr double kChangeMagnitude = 0.14;

double
seasonPhase(double day)
{
    // Smooth annual cycle peaking mid-summer (day ~196).
    return std::sin(2.0 * M_PI * (day - 105.0) / kDaysPerYear);
}

} // anonymous namespace

SceneModel::SceneModel(const LocationProfile &profile,
                       const SceneConfig &config)
    : profile_(profile), config_(config),
      landCover_(profile, config.width, config.height),
      grid_(config.width, config.height, config.tileSize)
{
    EP_ASSERT(!config_.bands.empty(), "scene needs at least one band");
    EP_ASSERT(config_.horizonDays > config_.historyStartDay,
              "empty scene time range");

    int w = config_.width;
    int h = config_.height;
    classBase_ = raster::Plane(w, h);
    detail_ = raster::Plane(w, h);
    seasonWeight_ = raster::Plane(w, h);
    snowWeight_ = raster::Plane(w, h, 0.0f);

    raster::Plane texture =
        fbmPlane(w, h, 1.0 / 24.0, 5, profile_.seed ^ 0x7e57);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            LandCover c = landCover_.at(x, y);
            const LandCoverParams &p = landCoverParams(c);
            classBase_.at(x, y) = static_cast<float>(p.baseReflectance);
            detail_.at(x, y) = static_cast<float>(
                (texture.at(x, y) - 0.5) * p.textureScale);
            seasonWeight_.at(x, y) = static_cast<float>(p.seasonalWeight);
            if (profile_.snowy) {
                // Snow accumulates on high terrain; weight ramps in over
                // the top elevation band.
                double e = landCover_.elevation().at(x, y);
                double sw = std::clamp((e - 0.55) / 0.2, 0.0, 1.0);
                snowWeight_.at(x, y) = static_cast<float>(sw);
            }
        }
    }

    // Draw per-tile Poisson change-event times over the scene horizon.
    int tiles = grid_.tileCount();
    eventTimes_.resize(static_cast<size_t>(tiles));
    changeCache_.resize(static_cast<size_t>(tiles));
    Rng sceneRng = Rng(profile_.seed).fork(0xc4a9);
    for (int t = 0; t < tiles; ++t) {
        // Tile change rate = mean of its pixels' land-cover rates.
        raster::TileRect r = grid_.rect(t);
        double rate = 0.0;
        int n = 0;
        for (int y = r.y0; y < r.y0 + r.height; y += 4) {
            for (int x = r.x0; x < r.x0 + r.width; x += 4) {
                rate += landCoverParams(landCover_.at(x, y))
                            .changeRatePerDay;
                ++n;
            }
        }
        rate = n ? rate / n : 0.0;
        Rng tileRng = sceneRng.fork(static_cast<uint64_t>(t));
        double day = config_.historyStartDay;
        auto &events = eventTimes_[static_cast<size_t>(t)];
        while (rate > 0.0) {
            day += tileRng.exponential(rate);
            if (day > config_.horizonDays)
                break;
            events.push_back(day);
        }
    }
}

raster::Plane
SceneModel::eventTexture(int tileIdx, int eventIdx, int w, int h) const
{
    uint64_t seed = profile_.seed ^
                    (static_cast<uint64_t>(tileIdx) * 0x9e37u) ^
                    (static_cast<uint64_t>(eventIdx) * 0x85ebca6bULL);
    raster::Plane tex = fbmPlane(w, h, 1.0 / 18.0, 3, seed);
    // Recenter to zero mean so events change structure, not brightness
    // alone, then scale to the configured magnitude.
    double mean = tex.mean();
    for (auto &v : tex.data())
        v = static_cast<float>((v - mean) * 2.0 * kChangeMagnitude);
    return tex;
}

const raster::Plane &
SceneModel::changeDelta(int tileIdx, int count) const
{
    auto &cache = changeCache_[static_cast<size_t>(tileIdx)];
    raster::TileRect r = grid_.rect(tileIdx);
    if (cache.delta.empty())
        cache.delta = raster::Plane(r.width, r.height, 0.0f);
    if (cache.applied > count) {
        // Time went backwards past a cached event; rebuild from scratch.
        cache.delta.fill(0.0f);
        cache.applied = 0;
    }
    while (cache.applied < count) {
        raster::Plane tex =
            eventTexture(tileIdx, cache.applied, r.width, r.height);
        for (size_t i = 0; i < tex.data().size(); ++i)
            cache.delta.data()[i] += tex.data()[i];
        ++cache.applied;
    }
    return cache.delta;
}

int
SceneModel::eventsBetween(int tileIdx, double d1, double d2) const
{
    EP_ASSERT(tileIdx >= 0 && tileIdx < grid_.tileCount(),
              "tile %d out of range", tileIdx);
    const auto &events = eventTimes_[static_cast<size_t>(tileIdx)];
    auto lo = std::upper_bound(events.begin(), events.end(), d1);
    auto hi = std::upper_bound(events.begin(), events.end(), d2);
    return static_cast<int>(hi - lo);
}

double
SceneModel::snowAlbedo(double day) const
{
    // Fresh/old/dirty snow albedo drifts on a multi-day scale; two
    // captures days apart therefore see materially different snow.
    return 0.72 + 0.12 * valueNoise1D(day * 0.31, profile_.seed ^ 0x5a0f);
}

double
SceneModel::snowSeason(double day) const
{
    double doy = std::fmod(std::fmod(day, kDaysPerYear) + kDaysPerYear,
                           kDaysPerYear);
    double c = 0.5 * (1.0 + std::cos(2.0 * M_PI * (doy - kSnowPeakDoy) /
                                     kDaysPerYear));
    return c * c * c; // sharpen: snow only around the winter peak
}

raster::Plane
SceneModel::groundTruth(double day, int b) const
{
    EP_ASSERT(b >= 0 && b < static_cast<int>(config_.bands.size()),
              "band %d out of range", b);
    const BandSpec &band = config_.bands[static_cast<size_t>(b)];
    int w = config_.width;
    int h = config_.height;
    raster::Plane out(w, h);

    double season = seasonPhase(day);
    double snowSeasonW = profile_.snowy ? snowSeason(day) : 0.0;
    double albedo = snowAlbedo(day);
    double snowValue = band.coldClouds ? kSnowSwirValue : albedo;
    bool hasAtmo = band.atmosphere > 0.04;
    uint64_t atmoSeed = profile_.seed ^ 0xa7305eedULL ^
                        (static_cast<uint64_t>(b) << 48);

    // Ground component per tile: base + texture + seasonal + changes.
    for (int t = 0; t < grid_.tileCount(); ++t) {
        raster::TileRect r = grid_.rect(t);
        int count = eventsBetween(t, config_.historyStartDay - 1.0, day);
        const raster::Plane &delta = changeDelta(t, count);
        for (int y = 0; y < r.height; ++y) {
            int gy = r.y0 + y;
            float *row = out.row(gy);
            for (int x = 0; x < r.width; ++x) {
                int gx = r.x0 + x;
                double v = classBase_.at(gx, gy) +
                           band.detailScale * detail_.at(gx, gy) +
                           band.seasonalAmplitude *
                               seasonWeight_.at(gx, gy) * season +
                           band.groundCoupling * delta.at(x, y);
                double sw = snowWeight_.at(gx, gy) * snowSeasonW;
                if (sw > 0.0) {
                    // Snow drapes the terrain rather than erasing it:
                    // part of the surface texture stays visible, which
                    // keeps snow distinguishable from (smooth) clouds.
                    v = v * (1.0 - sw) +
                        (snowValue + 0.35 * band.detailScale *
                                         detail_.at(gx, gy)) * sw;
                }
                row[gx] = static_cast<float>(v);
            }
        }
    }

    // Atmospheric component: a smooth, *slowly* drifting field,
    // dominant in the air-observing bands (B1/B9/B10). The drift is
    // gentle: the paper observes air bands change least between
    // cloud-free revisits (§5).
    if (hasAtmo) {
        double aw = band.atmosphere;
        for (int y = 0; y < h; ++y) {
            float *row = out.row(y);
            for (int x = 0; x < w; ++x) {
                double a = 0.35 +
                           0.10 * fbm(x / 200.0 + day * 0.008,
                                      y / 200.0 - day * 0.006, 3, 0.5,
                                      atmoSeed);
                row[x] = static_cast<float>(row[x] * (1.0 - aw) + a * aw);
            }
        }
    }

    out.clampTo(0.0f, 1.0f);
    return out;
}

raster::Image
SceneModel::groundTruthImage(double day) const
{
    raster::Image img;
    for (int b = 0; b < static_cast<int>(config_.bands.size()); ++b)
        img.addBand(groundTruth(day, b));
    img.info().locationId = profile_.locationId;
    img.info().captureDay = day;
    return img;
}

raster::TileMask
SceneModel::trueChangedTiles(double d1, double d2) const
{
    raster::TileMask mask(grid_);
    double albedoDiff = std::abs(snowAlbedo(d2) - snowAlbedo(d1));
    double snowW = std::max(snowSeason(d1), snowSeason(d2));
    for (int t = 0; t < grid_.tileCount(); ++t) {
        bool changed = eventsBetween(t, d1, d2) > 0;
        if (!changed && profile_.snowy && snowW > 0.05 &&
            albedoDiff > 0.02) {
            // Snowy tiles: check whether the tile actually holds snow.
            raster::TileRect r = grid_.rect(t);
            double sw = 0.0;
            int n = 0;
            for (int y = r.y0; y < r.y0 + r.height; y += 8) {
                for (int x = r.x0; x < r.x0 + r.width; x += 8) {
                    sw += snowWeight_.at(x, y);
                    ++n;
                }
            }
            changed = n > 0 && (sw / n) * snowW > 0.05;
        }
        mask.set(t, changed);
    }
    return mask;
}

} // namespace earthplus::synth
