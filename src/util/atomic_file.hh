/**
 * @file
 * Crash-safe replace-on-commit file writing (DESIGN.md section 13).
 * Content accumulates in memory and commit() writes it to a temp file
 * next to the destination, fsyncs, and renames into place — so a
 * crash (or an injected fault) at any point leaves either the old
 * file or the new one, never a truncated hybrid. Every persistent
 * artifact writer (profile cache, run reports, profile traces, bench
 * snapshots) routes through this.
 *
 * Each fallible step checks a fault-injection site; callers pass a
 * FileSites bundle to give their artifact class its own site names
 * ("cache.open"/"cache.write"/...), or inherit the generic "fs.*"
 * sites.
 */

#ifndef PGSS_UTIL_ATOMIC_FILE_HH
#define PGSS_UTIL_ATOMIC_FILE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/fi.hh"

namespace pgss::util
{

/**
 * The four fault-injection sites one artifact class's atomic writes
 * check. Declare at namespace scope with a string-literal prefix:
 *
 *     namespace { util::FileSites cache_sites("cache"); }
 */
struct FileSites
{
    explicit FileSites(const char *prefix);

    std::string open_name, write_name, fsync_name, rename_name;
    fi::Site open, write, fsync, rename;
};

/** The default "fs.*" sites. */
FileSites &fsSites();

/**
 * Accumulate-then-commit writer:
 *
 *     AtomicFileWriter out(path, &cache_sites);
 *     out.write(bytes.data(), bytes.size());
 *     if (!out.commit(&err)) ...   // old file still intact
 *
 * Destruction without commit() abandons the content (no filesystem
 * effect). commit() may be called once.
 */
class AtomicFileWriter
{
  public:
    explicit AtomicFileWriter(std::string path,
                              FileSites *sites = nullptr);

    void write(const void *data, std::size_t size);
    void write(const std::string &s);

    /**
     * Write temp file, fsync, rename over the destination. @return
     * false with @p *error set on any failure (real or injected); the
     * destination is untouched and the temp file is removed.
     */
    bool commit(std::string *error = nullptr);

  private:
    std::string path_;
    std::string buf_;
    FileSites *sites_;
    bool committed_ = false;
};

/** One-shot convenience: write @p size bytes of @p data to @p path
 * atomically. */
bool atomicWriteFile(const std::string &path, const void *data,
                     std::size_t size, FileSites *sites = nullptr,
                     std::string *error = nullptr);

/**
 * Read a whole file into @p out. @return false when the file does not
 * exist or a read fails (@p out is cleared). Not fault-injected —
 * corruption of loaded artifacts is injected by the owning artifact
 * class's *.read site so CRC validation sees it.
 */
bool readFileBytes(const std::string &path,
                   std::vector<std::uint8_t> &out);

/**
 * Move @p path aside as "<path>.corrupt" (replacing any previous
 * quarantine of the same artifact) so a corrupt artifact is preserved
 * for inspection but never re-loaded. @return false when the rename
 * fails (the caller should still treat the artifact as unusable).
 */
bool quarantineFile(const std::string &path);

} // namespace pgss::util

#endif // PGSS_UTIL_ATOMIC_FILE_HH
