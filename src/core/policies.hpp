/**
 * @file
 * The policy registry: every policy name in the repo resolves to exactly
 * one configuration, here (the table is in DESIGN.md, "Policy registry").
 * The paper's columns are nopm, drm (balancing only), s5 (soft-off), s3
 * (the paper's suspend-to-RAM) and adaptive (break-even state choice);
 * cstates, joint and hier add the C-state hierarchy and its governor.
 *
 * A preset depends on two facts of the rig and nothing else: the
 * evaluation interval (the governor's control period) and whether the
 * blade carries the synthetic deep state, in which case every preset
 * with a fixed sleep state sleeps in "SYNTH" (the blade's only state).
 * The joint governor's speed window is 900 s of simulated time:
 * max(1, ceil(900 s / period)) control cycles at any interval.
 */

#ifndef VPM_CORE_POLICIES_HPP
#define VPM_CORE_POLICIES_HPP

#include <optional>
#include <string>
#include <string_view>

#include "core/joint_policy.hpp"
#include "core/manager.hpp"

namespace vpm::mgmt {

/** A registry name resolved to everything it configures. */
struct PolicyPreset
{
    /** Table label ("PM+S3", "Joint", ...). */
    std::string label;

    /** Manager knobs; the period is left at its default for the caller. */
    VpmConfig manager;

    /** Present: every host carries power::modernIdleHierarchy() and this
     *  governor runs on the evaluation cadence. */
    std::optional<JointPolicyConfig> joint;
};

/** Registry names, in presentation order. */
inline constexpr std::string_view kPolicyNames[] = {
    "nopm", "drm", "s5", "s3", "adaptive", "cstates", "joint", "hier"};

/** The names joined with '|', for usage and error text. */
std::string policyNameList();

/** The joint governor's speed window, in cycles of @p period. */
int speedWindowCycles(sim::SimTime period);

/**
 * Resolve @p name for a rig evaluating every @p evaluation_interval on a
 * blade that does (@p synthetic_deep_state) or does not carry the
 * synthetic deep state. @return std::nullopt for an unknown name.
 */
std::optional<PolicyPreset> resolvePolicy(std::string_view name,
                                          sim::SimTime evaluation_interval,
                                          bool synthetic_deep_state);

/** The paper's policy columns: the first five registry names. */
enum class PolicyKind
{
    NoPM,
    DrmOnly,
    PmS5,
    PmS3,
    PmAdaptive,
};

/** Human-readable policy name for tables (the preset's label). */
const char *toString(PolicyKind kind);

/** All paper policies, in presentation order. */
inline constexpr PolicyKind allPolicies[] = {
    PolicyKind::NoPM, PolicyKind::DrmOnly, PolicyKind::PmS5,
    PolicyKind::PmS3, PolicyKind::PmAdaptive};

/**
 * Manager configuration of a paper policy on the stock blade. For NoPM
 * both management functions are disabled; the manager still runs (so
 * cycle counting stays comparable) but issues no actions.
 */
VpmConfig makePolicy(PolicyKind kind);

} // namespace vpm::mgmt

#endif // VPM_CORE_POLICIES_HPP
