// Shared plumbing for the benches that build no Scenario (the Scenario
// experiments are rows of tools/tsnfta_sim): key=value CLI parsing and the
// run manifest.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/manifest.hpp"
#include "util/config.hpp"
#include "util/log.hpp"

namespace tsn::bench {

/// A malformed argument or an unknown log level exits 2 with the usage
/// line, as tsnfta_sim does.
inline util::Config parse_cli(int argc, char** argv) {
  try {
    util::Config cfg = util::Config::from_args(argc, argv);
    util::set_log_level(util::parse_log_level(cfg.get_string("log", "warn")));
    return cfg;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "usage: %s [key=value ...]   (%s)\n", argv[0], e.what());
    std::exit(2);
  }
}

/// Write the manifest to `manifest=` (default `<tool>_manifest.json`) and
/// tell the user where it went. `manifest=none` suppresses it.
inline void write_manifest_from_cli(const util::Config& cli, const obs::RunManifest& m) {
  const std::string path = cli.get_string("manifest", m.tool + "_manifest.json");
  if (path == "none") return;
  obs::write_manifest(path, m);
  std::printf("run manifest -> %s (git %s)\n", path.c_str(), obs::build_git_sha());
}

} // namespace tsn::bench
