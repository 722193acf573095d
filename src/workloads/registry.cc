#include "workloads/registry.hh"

#include "support/logging.hh"
#include "workloads/workloads.hh"

namespace lbp
{
namespace workloads
{

namespace
{

struct Entry
{
    const char *name;
    const char *description;
    Program (*build)();
};

/** The Table-1 set, in the paper's order. */
constexpr Entry kTable1[] = {
    {"adpcm_enc", "IMA ADPCM speech encoder", buildAdpcmEnc},
    {"adpcm_dec", "IMA ADPCM speech decoder", buildAdpcmDec},
    {"g724_enc", "GSM-EFR-style speech encoder", buildG724Enc},
    {"g724_dec", "GSM-EFR-style speech decoder (Post_Filter)",
     buildG724Dec},
    {"jpeg_enc", "JPEG-style photo encoder", buildJpegEnc},
    {"jpeg_dec", "JPEG-style photo decoder", buildJpegDec},
    {"mpeg2_enc", "MPEG-2-style video encoder (motion search)",
     buildMpeg2Enc},
    {"mpeg2_dec", "MPEG-2-style video decoder (Add_Block)",
     buildMpeg2Dec},
    {"mpg123", "MPEG audio Layer-3-style decoder", buildMpg123},
    {"pgp_enc", "PGP-style block-cipher encoder", buildPgpEnc},
    {"pgp_dec", "PGP-style block-cipher decoder", buildPgpDec},
};

/** Buildable by name, but not part of Table 1. */
constexpr Entry kExtra[] = {
    {"post_filter_only", "g724_dec's Post_Filter alone (Figure 5)",
     buildPostFilterOnly},
};

const Entry *
findEntry(const std::string &name)
{
    for (const Entry &e : kTable1)
        if (name == e.name)
            return &e;
    for (const Entry &e : kExtra)
        if (name == e.name)
            return &e;
    return nullptr;
}

} // namespace

std::vector<WorkloadInfo>
allWorkloads()
{
    std::vector<WorkloadInfo> out;
    for (const Entry &e : kTable1)
        out.push_back({e.name, e.description});
    return out;
}

bool
isWorkload(const std::string &name)
{
    return findEntry(name) != nullptr;
}

Program
buildWorkload(const std::string &name)
{
    if (const Entry *e = findEntry(name))
        return e->build();
    LBP_FATAL("unknown workload '", name, "'");
}

} // namespace workloads
} // namespace lbp
