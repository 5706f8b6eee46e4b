#include "ground/archive_io.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>

#include "util/failpoint.hh"

#include <fcntl.h>
#include <unistd.h>

namespace earthplus::ground::archive_io {

namespace fs = std::filesystem;

namespace {

/** Process-wide crash latch: set by archive.io.crash, read by every
 *  mutation's ghost check and by crashed(). */
std::atomic<bool> gCrashed{false};

/** Failpoint sites, resolved once per process. */
struct Sites
{
    failpoint::Failpoint &crash =
        failpoint::site("archive.io.crash");
    failpoint::Failpoint &writeError =
        failpoint::site("archive.io.write.error");
    failpoint::Failpoint &writeShort =
        failpoint::site("archive.io.write.short");
    failpoint::Failpoint &writeEintr =
        failpoint::site("archive.io.write.eintr");
    failpoint::Failpoint &syncError =
        failpoint::site("archive.io.sync.error");
};

Sites &
sites()
{
    static Sites s;
    return s;
}

/**
 * One crash boundary for a non-write mutation: true when the
 * operation must ghost (latch already set, or archive.io.crash fires
 * here and sets it).
 */
bool
ghostBoundary()
{
    if (gCrashed.load(std::memory_order_relaxed))
        return true;
    if (sites().crash.fire()) {
        gCrashed.store(true, std::memory_order_relaxed);
        return true;
    }
    return false;
}

/**
 * The shared write loop: writes [data, data+size) into `f` at its
 * current position, applying the short/eintr schedules per iteration
 * and retrying until done. `allowed` caps how many bytes actually
 * reach the file (the injected-torn-write prefix); bytes past it are
 * silently dropped while success is still reported by the caller
 * that set the cap.
 */
bool
writeLoop(std::FILE *f, const uint8_t *data, size_t size,
          size_t allowed)
{
    size_t done = 0;
    int stalls = 0;
    while (done < size) {
        if (done >= allowed)
            return true; // injected prefix cap reached
        if (sites().writeEintr.fire()) {
            // Simulated EINTR: an iteration with zero progress. The
            // stall cap keeps a misconfigured always-on schedule from
            // spinning forever.
            if (++stalls > 1000)
                return false;
            continue;
        }
        size_t chunk = std::min(size, allowed) - done;
        if (chunk > 1 && sites().writeShort.fire()) {
            // Simulated short write: persist only a prefix of this
            // iteration's chunk; the loop must come back for the rest.
            int64_t arg = sites().writeShort.arg();
            size_t part = arg > 0 ? static_cast<size_t>(arg) : chunk / 2;
            chunk = std::min(chunk, std::max<size_t>(1, part));
        }
        size_t n = std::fwrite(data + done, 1, chunk, f);
        if (n == 0) {
            if (++stalls > 1000)
                return false;
            continue;
        }
        stalls = 0;
        done += n;
    }
    return true;
}

/**
 * Seek `f` to byte `offset` from its start, through fseeko's off_t
 * rather than std::fseek's long (32 bits on some hosts, which would
 * wrap offsets past 2 GiB).
 */
bool
seekTo(std::FILE *f, uint64_t offset)
{
    return ::fseeko(f, static_cast<off_t>(offset), SEEK_SET) == 0;
}

/** Open + position + write-loop + close, shared by create/writeAt. */
bool
writeCommon(const std::string &path, uint64_t offset, const void *data,
            size_t size, bool create)
{
    // Crash boundary first: the crashing write persists at most the
    // schedule's arg-byte prefix.
    size_t allowed = size;
    bool crashing = false;
    if (gCrashed.load(std::memory_order_relaxed))
        return true;
    if (sites().crash.fire()) {
        int64_t arg = sites().crash.arg();
        allowed = arg > 0 ? std::min<size_t>(
                                static_cast<size_t>(arg), size)
                          : 0;
        crashing = true;
    }
    bool failing = false;
    if (!crashing && sites().writeError.fire()) {
        int64_t arg = sites().writeError.arg();
        allowed = arg > 0 ? std::min<size_t>(
                                static_cast<size_t>(arg), size)
                          : 0;
        failing = true;
    }

    bool wrote = false;
    if (allowed > 0 || create) {
        std::FILE *f =
            std::fopen(path.c_str(), create ? "wb" : "rb+");
        if (f) {
            wrote = (create || seekTo(f, offset)) &&
                    writeLoop(f, static_cast<const uint8_t *>(data),
                              size, allowed);
            if (std::fclose(f) != 0)
                wrote = false;
        }
    } else {
        wrote = true; // zero-byte prefix: nothing to do
    }

    if (crashing) {
        gCrashed.store(true, std::memory_order_relaxed);
        return true; // the "dead" process reports nothing
    }
    if (failing)
        return false;
    return wrote;
}

} // namespace

bool
crashed()
{
    return gCrashed.load(std::memory_order_relaxed);
}

void
resetCrashLatch()
{
    gCrashed.store(false, std::memory_order_relaxed);
}

bool
createFile(const std::string &path, const void *data, size_t size)
{
    return writeCommon(path, 0, data, size, true);
}

bool
writeAt(const std::string &path, uint64_t offset, const void *data,
        size_t size)
{
    return writeCommon(path, offset, data, size, false);
}

bool
syncFile(const std::string &path)
{
    if (ghostBoundary())
        return true;
    if (sites().syncError.fire())
        return false;
    int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0)
        return false;
#if defined(__APPLE__)
    bool ok = ::fcntl(fd, F_FULLFSYNC) == 0 || ::fsync(fd) == 0;
#else
    bool ok = ::fdatasync(fd) == 0;
#endif
    ::close(fd);
    return ok;
}

bool
syncDir(const std::string &path)
{
    if (ghostBoundary())
        return true;
    if (sites().syncError.fire())
        return false;
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

bool
renameFile(const std::string &from, const std::string &to)
{
    if (ghostBoundary())
        return true;
    std::error_code ec;
    fs::rename(from, to, ec);
    return !ec;
}

bool
truncateFile(const std::string &path, uint64_t size)
{
    if (ghostBoundary())
        return true;
    std::error_code ec;
    fs::resize_file(path, size, ec);
    return !ec;
}

bool
removeFile(const std::string &path)
{
    if (ghostBoundary())
        return true;
    std::error_code ec;
    fs::remove(path, ec);
    return !ec;
}

} // namespace earthplus::ground::archive_io
