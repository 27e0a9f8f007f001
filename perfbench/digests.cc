#include "checks.h"

namespace perfbench {

// Digests of the canonical result bytes for the default seed. Regenerate
// with `perfbench --workload <w> --seed 1 --print-digests` after a change
// that is meant to alter results, and say why in the change.
std::map<std::string, std::string> RecordedDigests() {
  return {
      {"flow_suite/flow:C2670", "98e3c88343d4e647"},
      {"flow_suite/flow:C432", "fcec54ab3be11b7b"},
      {"flow_suite/flow:C880", "48db19d6392c90d4"},
      {"flow_suite/flow:alu2", "c9f7158132f62029"},
      {"flow_suite/flow:alu4", "0dc0465c09da447d"},
      {"flow_suite/flow:apex4", "6af05eb859d3ca4c"},
      {"flow_suite/flow:apex6", "a69a2042e65a7b6a"},
      {"flow_suite/flow:cmb", "b5aff6365f3c9f1b"},
      {"flow_suite/flow:cu", "42088d61889f3018"},
      {"flow_suite/flow:frg1", "da3db5aa1e9cc49b"},
      {"flow_suite/flow:i1", "c34ce59f55d1d50b"},
      {"flow_suite/flow:k2", "d7728de58a62f0b6"},
      {"flow_suite/flow:lsu_stb_ctl", "009fe20406fa884e"},
      {"flow_suite/flow:sparc_exu_ecl", "ae29b182703f725c"},
      {"flow_suite/flow:sparc_ifu_dcl", "be7e39b2f6ec577c"},
      {"flow_suite/flow:sparc_ifu_dec", "5d2f296403090f28"},
      {"flow_suite/flow:sparc_ifu_ifqdp", "4168eb3d53800b84"},
      {"flow_suite/flow:sparc_ifu_invctl", "1ed617228b63f516"},
      {"flow_suite/flow:too_large", "32de6cb476feb209"},
      {"flow_suite/flow:x2", "4a4ad15b48e3b38e"},
      {"signoff_mc/inject:C2670", "afc3c05ebe756386"},
      {"signoff_mc/inject:C432", "83e79e6382b136d5"},
      {"signoff_mc/inject:lsu_stb_ctl", "e94b3c279ed8b7a2"},
      {"signoff_mc/inject:sparc_ifu_dec", "79471f284a5cea5f"},
      {"signoff_mc/inject:sparc_ifu_invctl", "c10e97a53fb671b2"},
      {"signoff_mc/yield:C2670", "279b092d2afefead"},
      {"signoff_mc/yield:C432", "64064f1fb6db8ddd"},
      {"signoff_mc/yield:lsu_stb_ctl", "7d69b8bef287f370"},
      {"signoff_mc/yield:sparc_ifu_dec", "41bcb59ad7cfa3ec"},
      {"signoff_mc/yield:sparc_ifu_invctl", "fc24f809d3edd0a8"},
      {"serve_mixed/hot", "8ad2273e87b57441"},
      {"serve_mixed/miss", "4fd7f936e2c726af"},
  };
}

}  // namespace perfbench
