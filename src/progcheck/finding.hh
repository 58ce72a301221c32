/**
 * @file
 * Finding vocabulary of the program verifier. Every check reports
 * findings with a stable code (used by tests, the pgss_lint JSON
 * output, and CI gates), a severity, and the instruction index it
 * anchors to. DESIGN.md section 10 documents each code.
 */

#ifndef PGSS_PROGCHECK_FINDING_HH
#define PGSS_PROGCHECK_FINDING_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pgss::progcheck
{

/**
 * Version of the finding-JSON envelope emitted by the static
 * analyzer CLI (pgss_lint):
 *   {"schema": "pgss-findings", "version": N, "tool": ...,
 *    "programs": [<per-program report objects>]}
 * Each program object carries "program", "code_size", "errors",
 * "warnings" and a "findings" array of {"code", "severity", "pc",
 * "message"} objects. pgss_report's `findings` subcommand renders
 * any artifact with this schema.
 *
 * v2: envelope introduced (v1 was pgss_lint's bare report array).
 */
constexpr std::uint32_t findings_schema_version = 2;

/**
 * Wrap pre-rendered per-program report objects (reportJson output)
 * into the shared envelope under @p tool's name.
 */
std::string findingsEnvelope(std::string_view tool,
                             const std::vector<std::string> &programs);

/** How bad a finding is. Errors fail pgss_lint and the CI gate. */
enum class Severity : std::uint8_t
{
    Info,    ///< observation, no action needed
    Warning, ///< suspicious but architecturally defined
    Error,   ///< the program is wrong or violates a declared contract
};

/** Stable finding codes, one per distinct defect class. */
enum class Check : std::uint8_t
{
    // Structure pass.
    BadTarget,         ///< static branch/jump target out of range
    FallsOffEnd,       ///< execution can run past the last instruction
    IndirectNoTargets, ///< Jalr with no declared target set

    // CFG / reachability pass.
    UnreachableCode,   ///< block can never execute

    // Register def-use pass.
    ReadBeforeWrite,   ///< register read before any write reaches it
    DeadStoreReg,      ///< register write never observed before redef

    // Call-convention pass.
    CalleeWritesReserved, ///< subroutine writes a driver-reserved reg
    CalleeClobbersLink,   ///< leaf subroutine overwrites the link reg
    CallIntoMidProc,      ///< call target is not a subroutine entry

    // Memory / segment pass.
    OutOfSegment,      ///< static address outside declared segments
    MisalignedAccess,  ///< static address not 8-byte aligned
    DeadStoreMem,      ///< static address stored but never loaded

    // RAS / call-discipline pass.
    RasUnderflow,      ///< return executes with an empty call stack
    RasLeak,           ///< halt reachable with a non-empty call stack
    FallIntoProc,      ///< path falls through into another subroutine
    RecursionUnverified, ///< call-graph cycle; balance not provable

    NumChecks
};

/** Stable dotted name of @p check, e.g. "cfg.unreachable-code". */
std::string_view checkName(Check check);

/** Lower-case severity name: "info", "warning", "error". */
std::string_view severityName(Severity severity);

/** One defect, anchored to an instruction index. */
struct Finding
{
    Check check = Check::NumChecks;
    Severity severity = Severity::Info;
    std::uint64_t pc = 0;    ///< anchor instruction index
    std::string message;     ///< human-readable detail

    /** Render as "error cfg.unreachable-code @12: ...". */
    std::string str() const;
};

/** The verifier's result for one program. */
struct Report
{
    std::string program;           ///< program name
    std::size_t code_size = 0;     ///< static instructions analysed
    std::vector<Finding> findings; ///< sorted by (pc, code)

    /** Count findings at @p severity. */
    std::size_t count(Severity severity) const;

    /** True when no error-severity finding was reported. */
    bool clean() const { return count(Severity::Error) == 0; }

    /** Sort findings by (pc, code) for deterministic output. */
    void sort();
};

} // namespace pgss::progcheck

#endif // PGSS_PROGCHECK_FINDING_HH
