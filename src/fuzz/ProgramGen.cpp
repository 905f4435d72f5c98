//===- fuzz/ProgramGen.cpp - Seeded MiniGo program generator --------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramGen.h"

#include "support/Rng.h"

#include <vector>

using namespace gofree;
using namespace gofree::fuzz;

namespace {

std::string num(int64_t V) { return std::to_string(V); }

/// Function archetypes. Each helper function gets one; main calls the
/// highest-numbered helper of each archetype, and helper tails call
/// lower-numbered helpers of any archetype.
enum Archetype {
  SliceConsumer = 0, ///< func fI(a int, s []int) int
  MultiReturn,       ///< func fI(a int) (int, int)
  StructParam,       ///< func fI(p *Pair, a int) int     (UseStructs)
  BoxReturn,         ///< func fI(a int) *Box             (+UsePointers)
};

std::vector<int> assignArchetypes(const GenOptions &Opts, int NumFuncs) {
  std::vector<int> Enabled = {SliceConsumer, MultiReturn};
  if (Opts.UseStructs) {
    Enabled.push_back(StructParam);
    if (Opts.UsePointers)
      Enabled.push_back(BoxReturn);
  }
  std::vector<int> Arch((size_t)NumFuncs);
  for (int F = 0; F < NumFuncs; ++F)
    Arch[(size_t)F] = Enabled[(size_t)F % Enabled.size()];
  return Arch;
}

/// The six comparison operators, so every one of them reaches `if` and
/// `for` conditions and comparison values.
const char *const CmpOps[] = {"<", "<=", ">", ">=", "==", "!="};

/// Emits one random statement into a helper's inner loop. Statements only
/// touch names the prelude guarantees: acc, x0..x3, the loop var j, slices
/// buf and sl, and (option-gated) map m, struct pr, box pointer bx. Every
/// read through an index is guarded, every loop is bounded, and divisions
/// only appear as `%` by a nonzero literal, so no statement can fault --
/// faults the differ sees must come from the legs diverging, not from the
/// generator.
void emitStmt(std::string &Out, Rng &R, const GenOptions &Opts) {
  int Kind = (int)R.below(25);
  std::string X = "x" + num((int64_t)R.below(4));
  std::string C = num(R.range(1, 97));
  switch (Kind) {
  case 0:
  case 1:
    Out += "    acc = acc + " + X + "*" + C + " % 65537\n";
    return;
  case 2:
    Out += "    " + X + " = " + X + " + acc % " + C + " + 1\n";
    return;
  case 3:
    Out += "    buf = append(buf, acc + " + C + ")\n";
    return;
  case 4:
    Out += "    if acc % " + num(R.range(2, 7)) + " == 0 {\n"
           "      acc = acc + " + C + "\n"
           "    } else {\n"
           "      acc = acc - " + X + " % " + C + "\n"
           "    }\n";
    return;
  case 5:
    if (Opts.UseMaps) {
      Out += "    m[acc % " + num(R.range(16, 512)) + "] = " + X + "\n";
      return;
    }
    Out += "    acc = acc + " + C + "\n";
    return;
  case 6:
    if (Opts.UseMaps) {
      Out += "    acc = acc + m[" + X + " % " + num(R.range(16, 512)) + "]\n";
      return;
    }
    Out += "    acc = acc * 3 % 1000003\n";
    return;
  case 7:
    if (Opts.UseMaps) {
      Out += "    delete(m, acc % " + num(R.range(16, 512)) + ")\n"
             "    acc = acc + len(m)\n";
      return;
    }
    Out += "    acc = acc + 5\n";
    return;
  case 8:
    if (Opts.UsePointers) {
      Out += "    {\n"
             "      p := &" + X + "\n"
             "      *p = *p + " + C + "\n"
             "      acc = acc + *p % 127\n"
             "    }\n";
      return;
    }
    Out += "    acc = acc + 2\n";
    return;
  case 9:
    if (Opts.UsePointers) {
      Out += "    {\n"
             "      np := new(int)\n"
             "      *np = acc + " + C + "\n"
             "      acc = acc + *np % 509\n"
             "    }\n";
      return;
    }
    Out += "    acc = acc + 3\n";
    return;
  case 10:
    Out += "    {\n"
           "      t := make([]int, j % 4 + 1)\n"
           "      t[0] = acc + " + C + "\n"
           "      acc = acc + t[0] % 8191\n"
           "    }\n";
    return;
  case 11:
  case 12:
    // Inner-scope sub-slice aliasing the outer slice's backing array: the
    // Outlived analysis must keep tcfree away from `sub` here. Writing
    // through the alias makes any wrong free observable.
    Out += "    if len(buf) > 2 {\n"
           "      sub := buf[1 : len(buf) - 1]\n"
           "      sub[0] = sub[0] + " + C + "\n"
           "      acc = acc + len(sub) + sub[0] % " + C + "\n"
           "    }\n";
    return;
  case 13:
    if (R.chance(0.5)) {
      Out += "    for k := range sl {\n"
             "      acc = acc + sl[k] % 97\n"
             "    }\n";
      return;
    }
    Out += "    for _, v := range buf {\n"
           "      acc = acc + v % 89\n"
           "    }\n";
    return;
  case 14:
    if (Opts.UseStructs) {
      Out += "    pr.a = pr.a + " + C + "\n"
             "    acc = acc + pr.b % 211\n";
      return;
    }
    Out += "    acc = acc + 7\n";
    return;
  case 15:
    if (Opts.UseStructs && Opts.UsePointers) {
      Out += "    {\n"
             "      pp := &pr\n"
             "      pp.b = pp.b + " + C + "\n"
             "      acc = acc + pp.a % 223\n"
             "    }\n";
      return;
    }
    Out += "    acc = acc + 11\n";
    return;
  case 16:
    if (Opts.UseStructs && Opts.UsePointers) {
      Out += "    bx.n = bx.n + " + C + "\n"
             "    bx.buf = append(bx.buf, acc % 191)\n"
             "    acc = acc + bx.n % 499 + len(bx.buf)\n";
      return;
    }
    Out += "    acc = acc + 13\n";
    return;
  case 17:
    Out += "    {\n"
           "      dup := make([]int, len(buf))\n"
           "      acc = acc + copy(dup, buf) + " + C + "\n"
           "    }\n";
    return;
  case 18:
    // Shadowing: inner acc declared from the outer one.
    Out += "    {\n"
           "      acc := acc % " + C + " + 7\n"
           "      x1 = x1 + acc % 131\n"
           "    }\n";
    return;
  case 19:
    Out += "    switch acc % 3 {\n"
           "    case 0:\n"
           "      acc = acc + " + C + "\n"
           "    case 1, 2:\n"
           "      acc = acc - x2 % 67\n"
           "    default:\n"
           "      x3 = x3 + 1\n"
           "    }\n";
    return;
  case 20:
    if (Opts.UseDefer) {
      Out += "    defer drop1(x2 + " + C + ")\n";
      return;
    }
    Out += "    acc = acc + 17\n";
    return;
  case 21:
    if (Opts.UsePanic) {
      // Rare by construction: the prime keeps the expected number of
      // panics per program well under one, so most UsePanic programs
      // still run to completion.
      const char *Primes[] = {"49999", "65521", "99991"};
      Out += "    if acc % " + std::string(Primes[R.below(3)]) +
             " == 0 {\n"
             "      panic(acc % 251 + 17)\n"
             "    }\n";
      return;
    }
    Out += "    acc = acc + 19\n";
    return;
  case 22:
    Out += "    if acc % " + num(R.range(31, 61)) + " == 0 {\n"
           "      continue\n"
           "    }\n";
    return;
  case 23:
    // Re-slice in place: buf becomes an interior view of its own backing
    // array (tcfree at function end then sees an interior pointer).
    Out += "    if len(buf) > 1 {\n"
           "      buf = buf[1:]\n"
           "    }\n";
    return;
  case 24:
    Out += "    sink(acc % 1000000007)\n";
    return;
  }
}

/// Emits one statement aimed at the bytecode compiler's shapes rather than
/// the analysis: every comparison in `if` and `for` conditions and as a
/// value, `&&`/`||`/`!`/unary minus, loops over `k < len(buf)` with
/// continue and break, non-constant `*` and `/`, cap(), nil comparisons, a
/// call statement (to the leaf helper note), loads and stores through
/// computed addresses, and calls (setp, regrow) that write a local while
/// an assignment to it reads it. Same contract as emitStmt; its only divisor is
/// `x % 7 + 8`, which lies in 2..14.
void emitShapeStmt(std::string &Out, Rng &R) {
  std::string X = "x" + num((int64_t)R.below(4));
  std::string C = num(R.range(1, 97));
  switch (R.below(5)) {
  case 0: {
    // A comparison as a branch, as a value, and under && / || and !.
    std::string Op = CmpOps[R.below(6)];
    std::string Op2 = CmpOps[R.below(6)];
    Out += "    if " + X + " " + Op + " x" + num((int64_t)R.below(4)) +
           " {\n"
           "      acc = acc + " + C + "\n"
           "    }\n"
           "    {\n"
           "      lo := acc % 5 " + Op2 + " j\n"
           "      if lo && !(x1 " + Op + " " + C + ") || x3 == j {\n"
           "        acc = acc - 1\n"
           "      }\n"
           "    }\n";
    return;
  }
  case 1: {
    // A counted loop on each comparison; up or down, at most j+4 trips.
    std::string Op = CmpOps[R.below(6)];
    std::string Head;
    if (Op == "<" || Op == "<=")
      Head = "k := 0; k " + Op + " j + 2; k++";
    else if (Op == ">" || Op == ">=")
      Head = "k := j + 3; k " + Op + " 0; k--";
    else if (Op == "!=")
      Head = "k := 0; k != j + 3; k++";
    else
      Head = "k := j; k == j; k += 2";
    Out += "    for " + Head + " {\n"
           "      if k == " + num(R.range(1, 3)) + " {\n"
           "        continue\n"
           "      }\n"
           "      acc = acc + (k*" + C + " + x2)\n"
           "      if acc % 11 == 4 {\n"
           "        break\n"
           "      }\n"
           "    }\n";
    return;
  }
  case 2:
    // `k < len(buf)` with continue and break, indexing buf by k.
    Out += "    for k := 0; k < len(buf); k++ {\n"
           "      if buf[k] % 5 == 1 {\n"
           "        continue\n"
           "      }\n"
           "      if k > " + C + " {\n"
           "        break\n"
           "      }\n"
           "      buf[k] = buf[k] + k*3 + x1 % 17\n"
           "      acc = acc + buf[k] % 97\n"
           "    }\n";
    return;
  case 3:
    // Non-constant * and /, negation, and a constant multiplier.
    Out += "    " + X + " = -" + X + " + (acc + 1) * 3 % 101\n"
           "    acc = acc + x0 * x1 % 8191 - acc / (x2 % 7 + 8)\n";
    return;
  case 4:
    // A declared zero value, nil comparisons, cap(), a call statement, a
    // load through a computed pointer and a store through a general
    // slice element. Then calls that write a local through its address
    // while an assignment to it is under way: `w = w + setp(&w, j)` adds
    // to the w read before the call, and `t[regrow(&t, ..)] = w` stores
    // into the slice read before the call, which a later t[1] no longer
    // sees.
    Out += "    {\n"
           "      var z int\n"
           "      var ns []int\n"
           "      if ns == nil {\n"
           "        z = cap(buf[0:]) - len(sl)\n"
           "      }\n"
           "      t := make([]int, 3)\n"
           "      pt := &t\n"
           "      (*pt)[1] = z + *(&x" + num((int64_t)R.below(4)) + ")\n"
           "      note(t[1] + acc % " + C + ")\n"
           "      acc = acc + t[1] % 31\n"
           "      w := acc % 89\n"
           "      w = w + setp(&w, j)\n"
           "      t[regrow(&t, j + 2)] = w\n"
           "      acc = acc + w + t[1]\n"
           "    }\n";
    return;
  }
}

/// Emits a call to helper \p J into a tail (outside the loop), folding the
/// result into acc. The call shape follows the callee's archetype.
void emitCall(std::string &Out, Rng &R, int J, int CalleeArch) {
  std::string FJ = "f" + num(J);
  switch (CalleeArch) {
  case SliceConsumer:
    Out += "  acc = acc + " + FJ + "(acc % 13, buf) % 65521\n";
    return;
  case MultiReturn:
    Out += "  {\n"
           "    q, r := " + FJ + "(acc % 17)\n"
           "    acc = acc + q % 8191 + r\n"
           "  }\n";
    return;
  case StructParam:
    Out += "  acc = acc + " + FJ + "(&pr, acc % 19) % 32749\n";
    return;
  case BoxReturn:
    // Read the box's payload *array*, not just headers: if the callee's
    // escaping allocation were wrongly freed, this is where it shows.
    Out += "  {\n"
           "    b := " + FJ + "(acc % 23)\n"
           "    if len(b.buf) > 0 {\n"
           "      acc = acc + b.buf[" + num(R.below(2)) + " % len(b.buf)]"
           " % 1021\n"
           "    }\n"
           "    acc = acc + b.n % 4093\n"
           "  }\n";
    return;
  }
}

} // namespace

std::string gofree::fuzz::generateProgram(const GenOptions &Opts) {
  Rng R(Opts.Seed);
  // The shape statements draw from a stream of their own, so R, and with
  // it the rest of each seed's program, is what it was without them.
  Rng Shapes(Rng(Opts.Seed + 0x632be59bd9b4e019ULL).next());
  int NumFuncs = Opts.NumFuncs < 4 ? 4 : Opts.NumFuncs;
  std::vector<int> Arch = assignArchetypes(Opts, NumFuncs);

  std::string Out;
  Out.reserve((size_t)NumFuncs * (size_t)Opts.StmtsPerFunc * 56 + 1024);

  if (Opts.UseStructs) {
    Out += "type Pair struct {\n  a int\n  b int\n}\n\n";
    if (Opts.UsePointers)
      Out += "type Box struct {\n  n int\n  buf []int\n}\n\n";
  }
  Out += "func note(v int) {\n  sink(v % 4093)\n}\n\n"
         "func setp(p *int, v int) int {\n  *p = v\n  return v % 3\n}\n\n"
         "func regrow(p *[]int, n int) int {\n  *p = make([]int, n)\n"
         "  return 1\n}\n\n";
  if (Opts.UseDefer)
    Out += "func drop0(v int) {\n  sink(v % 8191)\n}\n\n"
           "func drop1(v int) {\n  sink(v % 127 + 1)\n}\n\n";

  for (int F = 0; F < NumFuncs; ++F) {
    std::string FN = "f" + num(F);
    switch (Arch[(size_t)F]) {
    case SliceConsumer:
      Out += "func " + FN + "(a int, s []int) int {\n"
             "  acc := a + len(s)\n";
      break;
    case MultiReturn:
      Out += "func " + FN + "(a int) (int, int) {\n"
             "  acc := a*2 + 1\n";
      break;
    case StructParam:
      Out += "func " + FN + "(p *Pair, a int) int {\n"
             "  acc := p.a + a\n";
      break;
    case BoxReturn:
      Out += "func " + FN + "(a int) *Box {\n"
             "  acc := a + 3\n";
      break;
    }
    // Common prelude: every name the statement pool may touch.
    Out += "  x0 := a + 1\n  x1 := a*2 + 3\n  x2 := a % 7\n"
           "  x3 := 11 - a % 5\n";
    Out += "  buf := make([]int, 0, 4)\n";
    if (Arch[(size_t)F] == SliceConsumer)
      Out += "  sl := s\n";
    else
      Out += "  sl := make([]int, 3)\n  sl[1] = a % 61 + 1\n";
    if (Opts.UseMaps)
      Out += "  m := make(map[int]int, 8)\n";
    if (Opts.UseStructs) {
      Out += "  pr := Pair{a: acc + 1, b: acc*2}\n";
      if (Opts.UsePointers)
        Out += "  bx := &Box{n: acc, buf: make([]int, 2)}\n";
    }
    if (Opts.UseDefer && R.chance(0.5))
      Out += "  defer drop0(acc + " + num(R.range(1, 97)) + ")\n";

    Out += "  for j := 0; j < a % 4 + 2; j = j + 1 {\n";
    const int ShapeAt = (int)Shapes.below((uint64_t)Opts.StmtsPerFunc + 1);
    for (int S = 0; S <= Opts.StmtsPerFunc; ++S) {
      if (S == ShapeAt)
        emitShapeStmt(Out, Shapes);
      if (S < Opts.StmtsPerFunc)
        emitStmt(Out, R, Opts);
    }
    Out += "  }\n";

    // Calls live in the tail, outside the loop: every helper calls its
    // predecessor, plus (half the time) one earlier helper. T(F) is then
    // bounded by T(F-1) + T(F-2) + 1 -- Fibonacci, not exponential -- so
    // the fuel budget holds for any generated program.
    if (F > 0)
      emitCall(Out, R, F - 1, Arch[(size_t)F - 1]);
    if (F > 1 && R.chance(0.5)) {
      int J = (int)R.below((uint64_t)(F - 1));
      emitCall(Out, R, J, Arch[(size_t)J]);
    }

    switch (Arch[(size_t)F]) {
    case SliceConsumer:
      Out += "  if len(buf) > 0 {\n"
             "    acc = acc + buf[len(buf) - 1] % 251\n"
             "  }\n"
             "  return acc\n";
      break;
    case MultiReturn:
      Out += "  return acc % 65521, x2 + len(buf)\n";
      break;
    case StructParam:
      Out += "  p.b = p.b + acc % 101\n"
             "  return acc + p.a % 503\n";
      break;
    case BoxReturn:
      // buf escapes through the result: the classic Outlived case.
      Out += "  return &Box{n: acc % 100003, buf: buf}\n";
      break;
    }
    Out += "}\n\n";
  }

  // main calls the top helper of each archetype so everything above is
  // reachable, folding results and sinking a running total.
  int Top[4] = {-1, -1, -1, -1};
  for (int F = 0; F < NumFuncs; ++F)
    Top[Arch[(size_t)F]] = F;
  Out += "func main(n int) {\n"
         "  total := 0\n"
         "  seed := make([]int, 4)\n"
         "  seed[0] = 1\n"
         "  seed[1] = n % 7\n"
         "  for i := 0; i < n; i = i + 1 {\n";
  if (Top[SliceConsumer] >= 0)
    Out += "    total = total + f" + num(Top[SliceConsumer]) +
           "(i, seed) % 1000003\n";
  if (Top[MultiReturn] >= 0)
    Out += "    {\n"
           "      q, r := f" + num(Top[MultiReturn]) + "(i + 1)\n"
           "      total = total + q + r % 127\n"
           "    }\n";
  if (Top[StructParam] >= 0)
    Out += "    {\n"
           "      pr := Pair{a: i, b: total % 65537}\n"
           "      total = total + f" + num(Top[StructParam]) +
           "(&pr, i) % 2047 + pr.b % 31\n"
           "    }\n";
  if (Top[BoxReturn] >= 0)
    Out += "    {\n"
           "      b := f" + num(Top[BoxReturn]) + "(i + 2)\n"
           "      if len(b.buf) > 0 {\n"
           "        total = total + b.buf[len(b.buf) - 1] % 1021\n"
           "      }\n"
           "      total = total + b.n % 4093\n"
           "    }\n";
  Out += "    sink(total % 1000000007)\n"
         "  }\n"
         "  sink(total % 1000000007)\n"
         "}\n";
  return Out;
}
