#include "smr/factory.hpp"

#include <stdexcept>

#include "smr/internal.hpp"

namespace emr::smr {

namespace {

using internal::EbrOptions;
using internal::EraVariant;
using internal::TokenOptions;
using internal::TokenPolicy;

/// The schedule suffix grammar, spelled once: each suffix picks one
/// FreeMode (and so the executor's behaviour and its schedule).
struct Suffix {
  const char* text;
  FreeMode mode;
};
constexpr Suffix kSuffixes[] = {{"", FreeMode::kBatch},
                                {"_af", FreeMode::kAmortized},
                                {"_pool", FreeMode::kPool},
                                {"_adaptive", FreeMode::kAdaptive},
                                {"_latency", FreeMode::kLatency}};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() > suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The multi-word token variants are whole names, not suffixed forms of
/// "token".
bool takes_suffix(const std::string& name) {
  return name != "token_naive" && name != "token_passfirst";
}

}  // namespace

std::string reclaimer_base_name(const std::string& name) {
  // "_hf" (home-flush) is the outermost suffix: it composes with every
  // suffixable form (hp_hf, hp_af_hf, token_latency_hf), so strip it
  // before the schedule suffix.
  std::string rest = name;
  if (ends_with(rest, "_hf")) rest.resize(rest.size() - 3);
  if (!takes_suffix(rest)) return rest;
  for (const Suffix& sfx : kSuffixes) {
    const std::string text = sfx.text;
    if (!text.empty() && ends_with(rest, text)) {
      return rest.substr(0, rest.size() - text.size());
    }
  }
  return rest;
}

ReclaimerBundle make_reclaimer(const std::string& name, const SmrContext& ctx,
                               const SmrConfig& cfg) {
  if (ctx.allocator == nullptr) {
    throw std::invalid_argument("make_reclaimer: SmrContext.allocator unset");
  }

  // Split off the trailing home-flush marker first ("hp_af_hf" ->
  // "hp_af" + routing on), then the free-schedule suffix. The name is
  // the only switch for either.
  const bool hf = ends_with(name, "_hf");
  const std::string stem = hf ? name.substr(0, name.size() - 3) : name;

  // Suffixed forms of the fixed token variants ("token_naive_af",
  // "token_naive_hf") are not in the name grammar — reject them rather
  // than constructing an untested combination.
  const std::string base = reclaimer_base_name(stem);
  if (!takes_suffix(base) && base != name) {
    throw std::invalid_argument("unknown reclaimer: " + name);
  }
  const std::string suffix = stem.substr(base.size());
  const Suffix* sfx = nullptr;
  for (const Suffix& s : kSuffixes) {
    if (suffix == s.text) sfx = &s;
  }
  if (sfx == nullptr) throw std::invalid_argument("unknown reclaimer: " + name);

  ReclaimerBundle bundle;
  bundle.executor = std::make_unique<FreeExecutor>(ctx, cfg, sfx->mode);
  bundle.executor->set_home_flush(hf);

  // Token family.
  TokenOptions topt;
  bool is_token = true;
  if (base == "token_naive") {
    topt = {"token_naive", TokenPolicy::kNaive};
  } else if (base == "token_passfirst") {
    topt = {"token_passfirst", TokenPolicy::kPassFirst};
  } else if (base == "token") {
    // The suffixed forms run token_passfirst's policy; the executor
    // mode makes the difference.
    topt = {"token" + suffix,
            suffix.empty() ? TokenPolicy::kPeriodic : TokenPolicy::kPassFirst};
  } else {
    is_token = false;
  }
  if (is_token) {
    bundle.reclaimer =
        internal::make_token(topt, ctx, cfg, *bundle.executor);
    return bundle;
  }

  // Pointer-protecting families, each in its own translation unit.
  if (base == "hp") {
    bundle.reclaimer = internal::make_hp(ctx, cfg, *bundle.executor);
    return bundle;
  }
  if (base == "he" || base == "ibr" || base == "wfe") {
    const EraVariant variant = base == "he"    ? EraVariant::kHazardEras
                               : base == "ibr" ? EraVariant::kInterval
                                               : EraVariant::kWaitFreeEras;
    bundle.reclaimer =
        internal::make_era(variant, ctx, cfg, *bundle.executor);
    return bundle;
  }
  if (base == "nbr" || base == "nbrplus") {
    bundle.reclaimer = internal::make_nbr(/*plus=*/base == "nbrplus", ctx,
                                          cfg, *bundle.executor);
    return bundle;
  }

  // Epoch family.
  EbrOptions opt;
  if (base == "none") {
    opt = {"none", /*leak=*/true, /*quiescent=*/true};
  } else if (base == "qsbr") {
    opt = {"qsbr", false, /*quiescent=*/true};
  } else if (base == "rcu") {
    opt = {"rcu", false, /*quiescent=*/true};
  } else if (base == "debra") {
    opt = {"debra", false, false};
  } else {
    throw std::invalid_argument("unknown reclaimer: " + name);
  }
  bundle.reclaimer = internal::make_ebr(opt, ctx, cfg, *bundle.executor);
  return bundle;
}

const std::vector<std::string>& experiment2_reclaimers() {
  static const std::vector<std::string> kNames = {
      "debra", "token", "qsbr", "rcu", "ibr",
      "nbr",   "nbrplus", "he", "hp",  "wfe"};
  return kNames;
}

const std::vector<std::string>& reclaimer_names() {
  static const std::vector<std::string> kNames = {
      "none", "qsbr", "rcu", "debra", "hp",  "he",
      "ibr",  "wfe",  "nbr", "nbrplus", "token_naive",
      "token_passfirst", "token"};
  return kNames;
}

const std::vector<std::string>& all_factory_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const std::string& base : reclaimer_names()) {
      if (!takes_suffix(base)) {
        names.push_back(base);
        continue;
      }
      for (const Suffix& sfx : kSuffixes) names.push_back(base + sfx.text);
      // Home-flush twin of every suffixable form.
      for (const Suffix& sfx : kSuffixes) {
        names.push_back(base + sfx.text + "_hf");
      }
    }
    return names;
  }();
  return kNames;
}

}  // namespace emr::smr
