"""The two-function kernel of the incremental-campaign checks.

perfbench's ``recampaign`` workload and the selective-staleness tests of
:mod:`repro.harness.incremental` campaign this program, then a copy
whose ``mix_b`` multiplier changes, against one outcome store.  Each
helper exceeds the cross-function inliner's 40-instruction threshold, so
it keeps its own regions and therefore its own outcome-store sections.
The edit preserves the dynamic shape (same instruction counts, same
branch decisions, different machine code for exactly one function), so
unchanged functions' sections stay cached: trial plans and landing
regions are identical, and only the edited function's sections
re-inject.
"""

#: The function the edited variant changes (everything else is identical).
EDITED_FUNCTION = "mix_b"

_COMMON_HEADER = """\
// campaign-cache bench: two heavy helpers plus a driver loop.  Each
// helper exceeds the inliner's 40-instruction threshold so it keeps its
// own idempotent regions (and therefore its own outcome-store sections).
int acc[16];

int mix_a(int s) {
  int i;
  int v = s;
  for (i = 0; i < 12; i = i + 1) {
    v = (v * 1103515245 + 12345) % 2147483648;
    v = v + (v >> 3) * 7 - (v >> 5) * 3;
    v = v ^ (v >> 7);
    v = v + i * 11;
    v = v % 65536;
    acc[i % 16] = acc[i % 16] + v % 97;
  }
  return v;
}
"""

_MIX_B = """\

int mix_b(int s) {
  int i;
  int v = s + 17;
  for (i = 0; i < 12; i = i + 1) {
    v = (v * 69069 + 1) % 2147483648;
    v = v + (v >> 2) * 5 - (v >> 6) * 9;
    v = v ^ (v >> 9);
    v = v + i * %MULT%;
    v = v % 65536;
    acc[(i + 8) % 16] = acc[(i + 8) % 16] + v % 89;
  }
  return v;
}
"""

_MAIN = """\

int main() {
  int round;
  int total = 0;
  for (round = 0; round < 6; round = round + 1) {
    total = total + mix_a(round * 3 + 1);
    total = total + mix_b(round * 5 + 2);
  }
  print_int(total);
  return total;
}
"""

#: Base program and its one-function edit (mix_b's multiplier changes;
#: instruction counts and branch decisions are identical).
BASE_SOURCE = _COMMON_HEADER + _MIX_B.replace("%MULT%", "13") + _MAIN
EDITED_SOURCE = _COMMON_HEADER + _MIX_B.replace("%MULT%", "29") + _MAIN
