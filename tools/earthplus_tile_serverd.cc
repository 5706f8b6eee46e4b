/**
 * @file
 * earthplus_tile_serverd — the standalone EPT serving daemon.
 *
 * Opens the archive named by `--archive`, wraps it in a
 * ground::TileServer, and fronts it with a net::Server speaking the
 * EPTQ/EPTR protocol (docs/ARCHITECTURE.md). Runs until
 * SIGINT/SIGTERM, then drains and exits cleanly.
 *
 * `--selftest` replaces the serve loop with a loopback round trip —
 * the CI smoke test that the daemon can bind, handshake, serve pixels
 * over the wire, and shut down without leaks. Without `--archive` it
 * writes a one-record synthetic archive into a fresh directory under
 * $TMPDIR (default /tmp) and removes it afterwards.
 *
 * A malformed option (unknown, missing its value, or a numeric value
 * that is not a whole number in its field's range) prints the usage
 * text and exits with status 2, and so does serving without
 * `--archive`.
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "codec/codec.hh"
#include "ground/archive.hh"
#include "ground/tile_server.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "util/rng.hh"

using namespace earthplus;

namespace {

std::atomic<bool> gStop{false};

void
onSignal(int)
{
    gStop.store(true);
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --archive DIR        sharded archive to serve (required "
        "unless --selftest)\n"
        "  --port N             TCP port (default 7455; 0 = ephemeral)\n"
        "  --cache-mb N         decoded-tile cache budget (default 64)\n"
        "  --max-connections N  concurrent connections (default 256)\n"
        "  --max-pending N      admission queue depth (default 128)\n"
        "  --retry-after-ms N   shed retry hint (default 50)\n"
        "  --drain-ms N         graceful-drain bound on shutdown "
        "(default 1000; 0 = immediate)\n"
        "  --sync MODE          archive durability: none, interval, "
        "always (default none)\n"
        "  --poll               force the poll() backend over epoll\n"
        "  --selftest           loopback round trip, then exit "
        "(default archive: synthetic, in a temp directory)\n",
        argv0);
}

/**
 * Parse a whole decimal flag value in [0, hi] into `out`. False on an
 * empty or non-numeric string, trailing characters, or a value out of
 * range, so a bad flag is a usage error instead of a silent wrap.
 */
bool
parseIntArg(const char *text, long long hi, long long &out)
{
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < 0 || v > hi)
        return false;
    out = v;
    return true;
}

/** A fresh directory under $TMPDIR, removed with everything in it. */
class TempDir
{
  public:
    TempDir()
    {
        const char *tmp = std::getenv("TMPDIR");
        path_ = std::string(tmp && *tmp ? tmp : "/tmp") +
                "/earthplus_serverd.XXXXXX";
        if (!::mkdtemp(path_.data())) {
            std::fprintf(stderr, "cannot create temp directory '%s': %s\n",
                         path_.c_str(), std::strerror(errno));
            std::exit(1);
        }
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Synthetic --selftest content when no --archive is given. */
void
buildSynthetic(ground::Archive &archive)
{
    raster::Plane base(256, 256);
    Rng rng(1234);
    for (int y = 0; y < base.height(); ++y)
        for (int x = 0; x < base.width(); ++x)
            base.at(x, y) =
                0.5f + 0.3f * std::sin(x * 0.04f) * std::cos(y * 0.06f) +
                static_cast<float>(rng.normal(0.0, 0.01));
    base.clampTo(0.0f, 1.0f);
    codec::EncodeParams ep;
    ep.bitsPerPixel = 4.0;
    ep.tileSize = 64;
    ground::RecordMeta meta;
    meta.locationId = 1;
    meta.band = 0;
    meta.captureDay = 1.0;
    meta.fullDownload = true;
    archive.append(meta, codec::encode(base, ep).serialize());
}

/** The --selftest loopback round trip. 0 on success. */
int
selftest(ground::TileServer &tiles, net::Server &server)
{
    net::TileClient client;
    if (!client.connect("127.0.0.1", server.port())) {
        std::fprintf(stderr, "selftest: connect failed\n");
        return 1;
    }
    ground::TileQuery q;
    q.locationId = 1;
    q.day = 1.5;
    q.width = 256;
    q.height = 256;
    ground::TileResult remote;
    if (!client.query(q, remote) || !remote.ok()) {
        std::fprintf(stderr, "selftest: query failed (%s)\n",
                     ground::serveErrorName(remote.error));
        return 1;
    }
    ground::TileResult local = tiles.serve(q);
    if (remote.pixels.data() != local.pixels.data()) {
        std::fprintf(stderr, "selftest: wire pixels != local pixels\n");
        return 1;
    }
    std::printf("selftest ok: %dx%d px over loopback port %u\n",
                remote.pixels.width(), remote.pixels.height(),
                static_cast<unsigned>(server.port()));
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string archivePath;
    net::ServerOptions options;
    ground::ArchiveOptions archiveOptions;
    options.port = 7455;
    size_t cacheMb = 64;
    bool runSelftest = false;

    // Every numeric flag takes a whole number that fits its field; a
    // value that does not falls through to the usage error below.
    constexpr long long kMaxU32 = UINT32_MAX;
    constexpr long long kMaxSize = LLONG_MAX;
    constexpr long long kMaxCacheMb =
        static_cast<long long>(SIZE_MAX >> 20);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        long long v = 0;
        auto intArg = [&](long long hi) {
            return i + 1 < argc && parseIntArg(argv[++i], hi, v);
        };
        if (arg == "--archive" && i + 1 < argc) {
            archivePath = argv[++i];
        } else if (arg == "--port" && intArg(UINT16_MAX)) {
            options.port = static_cast<uint16_t>(v);
        } else if (arg == "--cache-mb" && intArg(kMaxCacheMb)) {
            cacheMb = static_cast<size_t>(v);
        } else if (arg == "--max-connections" && intArg(kMaxSize)) {
            options.maxConnections = static_cast<size_t>(v);
        } else if (arg == "--max-pending" && intArg(kMaxSize)) {
            options.maxPending = static_cast<size_t>(v);
        } else if (arg == "--retry-after-ms" && intArg(kMaxU32)) {
            options.retryAfterMs = static_cast<uint32_t>(v);
        } else if (arg == "--drain-ms" && intArg(kMaxU32)) {
            options.drainTimeoutMs = static_cast<uint32_t>(v);
        } else if (arg == "--sync" && i + 1 < argc) {
            std::string mode = argv[++i];
            if (mode == "none") {
                archiveOptions.syncPolicy = ground::SyncPolicy::None;
            } else if (mode == "interval") {
                archiveOptions.syncPolicy =
                    ground::SyncPolicy::Interval;
            } else if (mode == "always") {
                archiveOptions.syncPolicy = ground::SyncPolicy::Always;
            } else {
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--poll") {
            options.usePoll = true;
        } else if (arg == "--selftest") {
            runSelftest = true;
            options.port = 0; // never collide with a running daemon
        } else {
            usage(argv[0]);
            return arg == "--help" ? 0 : 2;
        }
    }
    if (archivePath.empty() && !runSelftest) {
        usage(argv[0]);
        return 2;
    }

    // A selftest without --archive serves a synthetic archive from a
    // fresh temp directory, removed on every exit path below.
    std::optional<TempDir> synthetic;
    if (archivePath.empty()) {
        synthetic.emplace();
        archivePath = synthetic->path();
    }

    // Open through the typed-error factory so a bad archive is an
    // orderly nonzero exit, not an abort.
    ground::ArchiveOpenError openError;
    auto archivePtr =
        ground::Archive::open(archivePath, archiveOptions, &openError);
    if (!archivePtr) {
        std::fprintf(stderr, "failed to open archive '%s': %s\n",
                     archivePath.c_str(), openError.detail.c_str());
        return 1;
    }
    ground::Archive &archive = *archivePtr;
    if (synthetic)
        buildSynthetic(archive);
    else if (archive.recordCount() == 0)
        std::fprintf(stderr, "warning: archive '%s' is empty\n",
                     archivePath.c_str());

    ground::TileServer tiles(archive, cacheMb << 20);
    net::Server server(tiles, options);
    if (!server.start()) {
        std::fprintf(stderr, "failed to bind %s:%u\n",
                     options.bindAddress.c_str(),
                     static_cast<unsigned>(options.port));
        return 1;
    }

    if (runSelftest) {
        int rc = selftest(tiles, server);
        server.stop();
        return rc;
    }

    // sigaction over std::signal: no SA_RESTART, so the sleep below
    // wakes promptly, and the disposition is reliably process-wide
    // even with the serving threads already running.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    std::printf("earthplus_tile_serverd: serving %s on %s:%u "
                "(%zu records)\n",
                archivePath.c_str(),
                options.bindAddress.c_str(),
                static_cast<unsigned>(server.port()),
                archive.recordCount());
    while (!gStop.load() && server.running())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.stop();
    std::printf("earthplus_tile_serverd: stopped\n");
    return 0;
}
