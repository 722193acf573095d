/**
 * @file
 * Name-indexed registry over the Table-1 benchmark set.
 */

#ifndef LBP_WORKLOADS_REGISTRY_HH
#define LBP_WORKLOADS_REGISTRY_HH

#include <string>
#include <vector>

#include "ir/program.hh"

namespace lbp
{
namespace workloads
{

struct WorkloadInfo
{
    std::string name;
    std::string description;
};

/** All benchmark names, in the paper's Table-1 order. */
std::vector<WorkloadInfo> allWorkloads();

/**
 * Does buildWorkload accept @p name? True for the Table-1 names and
 * for the Figure-5 kernel "post_filter_only".
 */
bool isWorkload(const std::string &name);

/** Build a fresh Program for @p name; fatal on unknown names. */
Program buildWorkload(const std::string &name);

} // namespace workloads
} // namespace lbp

#endif // LBP_WORKLOADS_REGISTRY_HH
