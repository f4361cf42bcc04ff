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

/// Parses the command line and hands it to `read`, which reads every key
/// the bench uses and returns them. A malformed argument or value, an
/// unknown log level or a key `read` never asked for exits 2 with the
/// usage line, as tsnfta_sim does.
template <class Read>
auto parse_cli(int argc, char** argv, Read read) {
  try {
    const util::Config cfg = util::Config::from_args(argc, argv);
    util::set_log_level(util::parse_log_level(cfg.get_string("log", "warn")));
    auto options = read(cfg);
    cfg.reject_unread();
    return options;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "usage: %s [key=value ...]   (%s)\n", argv[0], e.what());
    std::exit(2);
  }
}

/// The `manifest=` key: where the run manifest goes (default
/// `<tool>_manifest.json`; `none` writes nothing).
inline std::string manifest_path(const util::Config& cli, const std::string& tool) {
  return cli.get_string("manifest", tool + "_manifest.json");
}

/// Writes the manifest to `path` and tells the user where it went.
inline void write_manifest(const std::string& path, const obs::RunManifest& m) {
  if (path == "none") return;
  obs::write_manifest(path, m);
  std::printf("run manifest -> %s (git %s)\n", path.c_str(), obs::build_git_sha());
}

} // namespace tsn::bench
