#include "bir/bir.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "support/logging.hh"

namespace scamv::bir {

const char *
cmpName(CmpOp op)
{
    switch (op) {
      case CmpOp::Eq: return "eq";
      case CmpOp::Ne: return "ne";
      case CmpOp::Ult: return "ltu";
      case CmpOp::Ule: return "leu";
      case CmpOp::Ugt: return "gtu";
      case CmpOp::Uge: return "geu";
      case CmpOp::Slt: return "lt";
      case CmpOp::Sle: return "le";
      case CmpOp::Sgt: return "gt";
      case CmpOp::Sge: return "ge";
    }
    return "?";
}

const char *
aluName(AluOp op)
{
    switch (op) {
      case AluOp::Add: return "add";
      case AluOp::Sub: return "sub";
      case AluOp::And: return "and";
      case AluOp::Orr: return "orr";
      case AluOp::Eor: return "eor";
      case AluOp::Lsl: return "lsl";
      case AluOp::Lsr: return "lsr";
      case AluOp::Asr: return "asr";
      case AluOp::Mul: return "mul";
    }
    return "?";
}

CmpOp
negateCmp(CmpOp op)
{
    switch (op) {
      case CmpOp::Eq: return CmpOp::Ne;
      case CmpOp::Ne: return CmpOp::Eq;
      case CmpOp::Ult: return CmpOp::Uge;
      case CmpOp::Ule: return CmpOp::Ugt;
      case CmpOp::Ugt: return CmpOp::Ule;
      case CmpOp::Uge: return CmpOp::Ult;
      case CmpOp::Slt: return CmpOp::Sge;
      case CmpOp::Sle: return CmpOp::Sgt;
      case CmpOp::Sgt: return CmpOp::Sle;
      case CmpOp::Sge: return CmpOp::Slt;
    }
    return CmpOp::Eq;
}

Instr
Instr::alu(AluOp op, Reg rd, Reg rn, Reg rm)
{
    Instr i;
    i.kind = InstrKind::Alu;
    i.aluOp = op;
    i.rd = rd;
    i.rn = rn;
    i.rm = rm;
    return i;
}

Instr
Instr::aluImm(AluOp op, Reg rd, Reg rn, std::uint64_t imm)
{
    Instr i;
    i.kind = InstrKind::Alu;
    i.aluOp = op;
    i.rd = rd;
    i.rn = rn;
    i.useImm = true;
    i.imm = imm;
    return i;
}

Instr
Instr::movImm(Reg rd, std::uint64_t imm)
{
    Instr i;
    i.kind = InstrKind::MovImm;
    i.rd = rd;
    i.imm = imm;
    i.useImm = true;
    return i;
}

Instr
Instr::load(Reg rd, Reg rn, Reg rm)
{
    Instr i;
    i.kind = InstrKind::Load;
    i.rd = rd;
    i.rn = rn;
    i.rm = rm;
    return i;
}

Instr
Instr::loadImm(Reg rd, Reg rn, std::uint64_t imm)
{
    Instr i;
    i.kind = InstrKind::Load;
    i.rd = rd;
    i.rn = rn;
    i.useImm = true;
    i.imm = imm;
    return i;
}

Instr
Instr::store(Reg rd, Reg rn, Reg rm)
{
    Instr i;
    i.kind = InstrKind::Store;
    i.rd = rd;
    i.rn = rn;
    i.rm = rm;
    return i;
}

Instr
Instr::storeImm(Reg rd, Reg rn, std::uint64_t imm)
{
    Instr i;
    i.kind = InstrKind::Store;
    i.rd = rd;
    i.rn = rn;
    i.useImm = true;
    i.imm = imm;
    return i;
}

Instr
Instr::branch(CmpOp op, Reg rn, Reg rm, int target)
{
    Instr i;
    i.kind = InstrKind::Branch;
    i.cmpOp = op;
    i.rn = rn;
    i.rm = rm;
    i.target = target;
    return i;
}

Instr
Instr::branchImm(CmpOp op, Reg rn, std::uint64_t imm, int target)
{
    Instr i;
    i.kind = InstrKind::Branch;
    i.cmpOp = op;
    i.rn = rn;
    i.useImm = true;
    i.imm = imm;
    i.target = target;
    return i;
}

Instr
Instr::jump(int target)
{
    Instr i;
    i.kind = InstrKind::Jump;
    i.target = target;
    return i;
}

Instr
Instr::halt()
{
    return Instr();
}

std::vector<Reg>
Instr::sourceRegs() const
{
    std::vector<Reg> srcs;
    forEachSourceReg([&](Reg r) { srcs.push_back(r); });
    return srcs;
}

Reg
Instr::destReg() const
{
    switch (kind) {
      case InstrKind::Alu:
      case InstrKind::MovImm:
      case InstrKind::Load:
        return rd;
      default:
        return -1;
    }
}

std::string
Program::validate() const
{
    const int n = static_cast<int>(code.size());
    if (n == 0)
        return "empty program";
    auto regOk = [](Reg r) { return r >= 0 && r < kNumRegs; };
    // The message is built only on failure: a valid program is
    // checked without allocating.
    auto err = [](int idx, const char *what) {
        return "instr " + std::to_string(idx) + ": " + what;
    };
    for (int idx = 0; idx < n; ++idx) {
        const Instr &i = code[idx];
        bool sources_ok = true;
        i.forEachSourceReg([&](Reg r) { sources_ok &= regOk(r); });
        if (!sources_ok)
            return err(idx, "source register out of range");
        if (i.destReg() != -1 && !regOk(i.destReg()))
            return err(idx, "destination register out of range");
        if (i.kind == InstrKind::Branch || i.kind == InstrKind::Jump) {
            if (i.target < 0 || i.target > n)
                return err(idx, "target out of range");
        }
    }
    const Instr &last = code.back();
    const bool terminates = last.kind == InstrKind::Halt ||
                            last.kind == InstrKind::Jump;
    if (!terminates)
        return "last instruction does not terminate";
    return "";
}

std::vector<Reg>
Program::usedRegs() const
{
    std::set<Reg> regs;
    for (const Instr &i : code) {
        for (Reg r : i.sourceRegs())
            regs.insert(r);
        if (i.destReg() != -1)
            regs.insert(i.destReg());
    }
    return {regs.begin(), regs.end()};
}

int
Program::branchCount() const
{
    int n = 0;
    for (const Instr &i : code)
        if (i.kind == InstrKind::Branch)
            ++n;
    return n;
}

int
Program::memAccessCount() const
{
    int n = 0;
    for (const Instr &i : code)
        if (i.isMemAccess() && !i.transient)
            ++n;
    return n;
}

std::string
Program::toString() const
{
    std::ostringstream out;
    // Labels for every branch/jump target.
    std::set<int> targets;
    for (const Instr &i : code)
        if (i.kind == InstrKind::Branch || i.kind == InstrKind::Jump)
            targets.insert(i.target);

    auto label = [&](int idx) {
        std::ostringstream l;
        l << "L" << idx;
        return l.str();
    };

    for (int idx = 0; idx <= static_cast<int>(code.size()); ++idx) {
        if (targets.count(idx))
            out << label(idx) << ":\n";
        if (idx == static_cast<int>(code.size()))
            break;
        const Instr &i = code[idx];
        out << "    ";
        if (i.transient)
            out << "@t ";
        switch (i.kind) {
          case InstrKind::Alu:
            out << aluName(i.aluOp) << " x" << i.rd << ", x" << i.rn
                << ", ";
            if (i.useImm)
                out << "#" << i.imm;
            else
                out << "x" << i.rm;
            break;
          case InstrKind::MovImm:
            out << "mov x" << i.rd << ", #" << i.imm;
            break;
          case InstrKind::Load:
            out << "ldr x" << i.rd << ", [x" << i.rn;
            if (i.useImm) {
                if (i.imm)
                    out << ", #" << i.imm;
            } else {
                out << ", x" << i.rm;
            }
            out << "]";
            break;
          case InstrKind::Store:
            out << "str x" << i.rd << ", [x" << i.rn;
            if (i.useImm) {
                if (i.imm)
                    out << ", #" << i.imm;
            } else {
                out << ", x" << i.rm;
            }
            out << "]";
            break;
          case InstrKind::Branch:
            out << "b." << cmpName(i.cmpOp) << " x" << i.rn << ", ";
            if (i.useImm)
                out << "#" << i.imm;
            else
                out << "x" << i.rm;
            out << ", " << label(i.target);
            break;
          case InstrKind::Jump:
            out << "b " << label(i.target);
            break;
          case InstrKind::Halt:
            out << "ret";
            break;
        }
        out << "\n";
    }
    return out.str();
}

} // namespace scamv::bir
