/**
 * @file
 * The archive's file-mutation layer: every write, sync, rename,
 * truncate and remove the sharded archive performs goes through these
 * free functions, so fault injection (util/failpoint.hh) can make any
 * of them short-write, fail, or "crash" — without a test double and
 * without the production code paths forking.
 *
 * Fault model (docs/RELIABILITY.md holds the full matrix):
 *
 *  - `archive.io.write.error` — the write persists an `arg`-byte
 *    prefix, then reports failure (ENOSPC/EIO-style).
 *  - `archive.io.write.short` / `archive.io.write.eintr` — one loop
 *    iteration makes partial/zero progress; the internal retry loop
 *    must finish the write anyway (these never surface to callers).
 *  - `archive.io.sync.error` — fdatasync/fsync reports failure.
 *  - `archive.io.crash` — the process "dies" at this boundary: the
 *    firing operation persists at most an `arg`-byte prefix, a
 *    process-wide crash latch sets, and from then on every mutation
 *    in this module reports success while touching nothing (ghost
 *    execution). The crash-consistency harness runs a workload to the
 *    latch, resets it, reopens the archive, and checks what survived
 *    — simulating a kill at every write boundary without forking a
 *    process per boundary.
 *
 * Reads deliberately stay outside this layer: a crashed process does
 * not read, and the harness stops the workload at the latch, so read
 * paths never observe ghost state.
 *
 * With no failpoint armed each hook costs one relaxed atomic load —
 * these functions stay on the production append path and in the
 * gated benches.
 */

#ifndef EARTHPLUS_GROUND_ARCHIVE_IO_HH
#define EARTHPLUS_GROUND_ARCHIVE_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace earthplus::ground::archive_io {

/**
 * True once `archive.io.crash` has fired: the simulated process is
 * dead and every later mutation ghost-succeeds. Workloads under a
 * crash schedule poll this after each operation and stop at the
 * latch.
 */
bool crashed();

/** Clear the crash latch (the harness's "restart the process"). */
void resetCrashLatch();

/**
 * Create (truncate) `path` and write `size` bytes from `data` into
 * it. False on failure; ghost-succeeds after a crash.
 */
bool createFile(const std::string &path, const void *data, size_t size);

/**
 * Write `size` bytes from `data` at byte `offset` of existing file
 * `path`, retrying internally over short writes and simulated EINTR.
 * False on failure (the file may hold a partial prefix of the write —
 * exactly what a real torn write leaves); ghost-succeeds after a
 * crash.
 */
bool writeAt(const std::string &path, uint64_t offset, const void *data,
             size_t size);

/**
 * fdatasync `path`'s data to stable storage (F_FULLFSYNC on Darwin).
 * False on failure (a caller-visible event: the archive's durability
 * contract counts and reports it); ghost-succeeds after a crash.
 */
bool syncFile(const std::string &path);

/**
 * fsync the directory `path`, making previously renamed/created
 * entries durable. Same failure/ghost semantics as syncFile().
 */
bool syncDir(const std::string &path);

/** Atomically rename `from` to `to`. False on failure; ghost-succeeds
 *  after a crash. */
bool renameFile(const std::string &from, const std::string &to);

/** Truncate `path` to `size` bytes. False on failure; ghost-succeeds
 *  after a crash. */
bool truncateFile(const std::string &path, uint64_t size);

/** Remove one file, tolerating absence. False on failure;
 *  ghost-succeeds after a crash. */
bool removeFile(const std::string &path);

} // namespace earthplus::ground::archive_io

#endif // EARTHPLUS_GROUND_ARCHIVE_IO_HH
