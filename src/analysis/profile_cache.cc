#include "analysis/profile_cache.hh"

#include <cctype>
#include <cstdio>
#include <filesystem>

#include "obs/spans.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/fi.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace pgss::analysis
{

namespace
{

constexpr std::uint32_t profile_magic = 0x50475046; // "PGPF"
// v3: CRC-32 seal after the header fields and after the interval
// payload, so bit-flips and truncation are detected as Corrupt
// (quarantine + rebuild) instead of silently skewing ground truth.
constexpr std::uint32_t profile_version = 3;

// Cache file traffic checks the "cache.*" fault sites; cache.read
// corrupts loaded bytes so CRC validation is what catches them.
util::FileSites cache_sites("cache");
util::fi::Site cache_read("cache.read");

/**
 * FNV-1a over the pieces that define a workload+machine identity:
 * code, data size, entry, interval size, and every numeric
 * EngineConfig field.
 */
std::uint64_t
identityHash(const isa::Program &program,
             const sim::EngineConfig &config,
             std::uint64_t interval_ops)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const isa::Instruction &inst : program.code) {
        mix(static_cast<std::uint64_t>(inst.op) |
            (std::uint64_t{inst.rd} << 8) |
            (std::uint64_t{inst.rs1} << 16) |
            (std::uint64_t{inst.rs2} << 24));
        mix(static_cast<std::uint64_t>(inst.imm));
    }
    mix(program.data_bytes);
    mix(program.entry);
    mix(interval_ops);
    // The full machine configuration: every field shapes the measured
    // timing, so a profile built for one machine must never be served
    // for another.
    for (const mem::CacheConfig *c :
         {&config.hierarchy.l1i, &config.hierarchy.l1d,
          &config.hierarchy.l2}) {
        mix(c->size_bytes);
        mix(c->assoc);
        mix(c->line_bytes);
    }
    mix(config.hierarchy.l1_latency);
    mix(config.hierarchy.l2_latency);
    mix(config.hierarchy.mem_latency);
    mix(config.branch.predictor_entries);
    mix(config.branch.history_bits);
    mix(config.branch.btb_entries);
    mix(config.branch.ras_depth);
    mix(config.branch.link_reg);
    mix(config.pipeline.width);
    mix(config.pipeline.mispredict_penalty);
    mix(config.pipeline.taken_branch_bubble);
    mix(config.pipeline.int_alu_latency);
    mix(config.pipeline.int_mul_latency);
    mix(config.pipeline.int_div_latency);
    mix(config.pipeline.fp_add_latency);
    mix(config.pipeline.fp_mul_latency);
    mix(config.pipeline.fp_div_latency);
    mix(config.pipeline.store_latency);
    mix(config.pipeline.store_buffer_entries);
    mix(config.pipeline.bytes_per_inst);
    mix(config.hashed_bbv.hash_bits);
    mix(config.hashed_bbv.bit_range_lo);
    mix(config.hashed_bbv.bit_range_hi);
    mix(config.hashed_bbv.seed);
    return h;
}

std::string
sanitize(const std::string &name)
{
    std::string out;
    for (char c : name)
        out.push_back(std::isalnum(static_cast<unsigned char>(c))
                          ? c
                          : '_');
    return out;
}

} // anonymous namespace

std::vector<std::uint8_t>
serializeProfile(const IntervalProfile &p)
{
    util::BinaryWriter w(profile_magic, profile_version);
    w.putString(p.name());
    w.putU64(p.intervalOps());
    w.putU64(p.totalOps());
    w.putU64(p.totalCycles());
    w.putU64(p.intervals());
    w.putSectionCrc(); // header
    for (std::size_t i = 0; i < p.intervals(); ++i) {
        w.putU64(p.intervalCycles(i));
        w.putDoubleVec(p.bbvRaw(i));
    }
    w.putSectionCrc(); // intervals
    return w.bytes();
}

IntervalProfile
deserializeProfile(const std::vector<std::uint8_t> &data, bool &ok)
{
    util::ReadError err;
    IntervalProfile p = deserializeProfile(data, err);
    ok = err == util::ReadError::None;
    return p;
}

IntervalProfile
deserializeProfile(const std::vector<std::uint8_t> &data,
                   util::ReadError &err)
{
    IntervalProfile p;
    util::BinaryReader r(data, profile_magic, profile_version);
    if (!r.ok()) {
        err = r.error();
        return p;
    }
    const std::string name = r.getString();
    const std::uint64_t interval_ops = r.getU64();
    p.setMeta(name, interval_ops);
    const std::uint64_t total_ops = r.getU64();
    const std::uint64_t total_cycles = r.getU64();
    const std::uint64_t n = r.getU64();
    r.checkSectionCrc(); // header
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        const std::uint64_t cycles = r.getU64();
        p.addInterval(cycles, r.getDoubleVec());
    }
    r.checkSectionCrc(); // intervals
    p.setTotals(total_ops, total_cycles);
    err = r.error();
    return p;
}

ProfileCache::ProfileCache(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        dir_ = util::profileCacheDir();
}

std::string
ProfileCache::pathFor(const isa::Program &program,
                      const sim::EngineConfig &config,
                      std::uint64_t interval_ops) const
{
    const std::uint64_t h =
        identityHash(program, config, interval_ops);
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "_%016llx.profile",
                  static_cast<unsigned long long>(h));
    return dir_ + "/" + sanitize(program.name) + suffix;
}

IntervalProfile
ProfileCache::loadOrBuild(const isa::Program &program,
                          const sim::EngineConfig &config,
                          std::uint64_t interval_ops)
{
    const std::string path = pathFor(program, config, interval_ops);

    {
        PGSS_SPAN("profile_cache.load", Io);
        std::vector<std::uint8_t> bytes;
        if (util::readFileBytes(path, bytes)) {
            // Injected read corruption lands on the raw bytes, so it
            // exercises exactly the path a flipped bit on disk takes.
            cache_read.corrupt(bytes);
            util::ReadError err;
            IntervalProfile p = deserializeProfile(bytes, err);
            if (err == util::ReadError::None) {
                util::verbose("profile cache hit: %s", path.c_str());
                return p;
            }
            if (err == util::ReadError::Corrupt) {
                // Damage, not staleness: set the file aside for
                // inspection and rebuild ground truth from scratch.
                ++util::fi::counter("cache.quarantined");
                util::quarantineFile(path);
            }
        }
    }

    util::inform("building ground-truth profile for %s "
                 "(full detailed simulation; cached at %s)",
                 program.name.c_str(), path.c_str());
    IntervalProfile p = [&] {
        PGSS_SPAN("profile_cache.build", Bench);
        return buildIntervalProfile(program, config, interval_ops);
    }();

    PGSS_SPAN("profile_cache.store", Io);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    const auto bytes = serializeProfile(p);
    std::string werr;
    if (!util::atomicWriteFile(path, bytes.data(), bytes.size(),
                               &cache_sites, &werr)) {
        // Not fatal: the profile is returned in memory; the next run
        // rebuilds it. Counted so chaos tests can assert degradation.
        ++util::fi::counter("cache.store_failed");
        util::warn("could not write profile cache file %s (%s)",
                   path.c_str(), werr.c_str());
    }
    return p;
}

} // namespace pgss::analysis
