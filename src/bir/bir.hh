/**
 * @file
 * Binary intermediate representation (BIR-like) for test programs.
 *
 * The paper's Scam-V pipeline transpiles ARMv8 binaries into the
 * HolBA binary intermediate representation.  This repository replaces
 * that front-end with a small RISC-like IR that covers everything the
 * evaluation templates use: register ALU operations, immediate moves,
 * loads/stores with register or immediate offsets, fused
 * compare-and-branch, unconditional direct jumps, and halt.
 *
 * Instructions may carry a `transient` flag: such instructions are
 * *shadow* statements added by the speculative instrumentation of
 * Section 4.2.2 and never execute architecturally; the symbolic
 * executor uses them to compute transient observations.
 */

#ifndef SCAMV_BIR_BIR_HH
#define SCAMV_BIR_BIR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace scamv::bir {

/** Architectural register index (x0..x31). */
using Reg = int;

/** Number of architectural registers. */
constexpr int kNumRegs = 32;

/** ALU operations. */
enum class AluOp : std::uint8_t {
    Add, Sub, And, Orr, Eor, Lsl, Lsr, Asr, Mul
};

/** Comparison predicates for fused compare-and-branch. */
enum class CmpOp : std::uint8_t {
    Eq, Ne, Ult, Ule, Ugt, Uge, Slt, Sle, Sgt, Sge
};

/** @return the mnemonic suffix of a comparison ("eq", "ltu", ...). */
const char *cmpName(CmpOp op);

/** @return the mnemonic of an ALU op ("add", "eor", ...). */
const char *aluName(AluOp op);

/** @return the complement predicate (used by instrumentation). */
CmpOp negateCmp(CmpOp op);

/** Instruction kinds. */
enum class InstrKind : std::uint8_t {
    Alu,    ///< rd = aluOp(rn, rm|imm)
    MovImm, ///< rd = imm
    Load,   ///< rd = mem[rn + (rm|imm)]
    Store,  ///< mem[rn + (rm|imm)] = rd
    Branch, ///< if cmpOp(rn, rm|imm) goto target
    Jump,   ///< goto target
    Halt    ///< stop execution
};

/** One IR instruction.  Fields are used per-kind as documented above. */
struct Instr {
    InstrKind kind = InstrKind::Halt;
    AluOp aluOp = AluOp::Add;
    CmpOp cmpOp = CmpOp::Eq;
    Reg rd = 0;
    Reg rn = 0;
    Reg rm = 0;
    bool useImm = false;      ///< second operand is `imm` instead of rm
    std::uint64_t imm = 0;
    int target = -1;          ///< Branch/Jump: destination index
    bool transient = false;   ///< shadow statement (instrumentation)

    // ---- Constructors ---------------------------------------------
    static Instr alu(AluOp op, Reg rd, Reg rn, Reg rm);
    static Instr aluImm(AluOp op, Reg rd, Reg rn, std::uint64_t imm);
    static Instr movImm(Reg rd, std::uint64_t imm);
    static Instr load(Reg rd, Reg rn, Reg rm);
    static Instr loadImm(Reg rd, Reg rn, std::uint64_t imm);
    static Instr store(Reg rd, Reg rn, Reg rm);
    static Instr storeImm(Reg rd, Reg rn, std::uint64_t imm);
    static Instr branch(CmpOp op, Reg rn, Reg rm, int target);
    static Instr branchImm(CmpOp op, Reg rn, std::uint64_t imm, int target);
    static Instr jump(int target);
    static Instr halt();

    /** @return registers read by this instruction. */
    std::vector<Reg> sourceRegs() const;

    /** Call f(r) for each register of sourceRegs(), in that order,
     *  without building the vector. */
    template <class F>
    void
    forEachSourceReg(F &&f) const
    {
        switch (kind) {
          case InstrKind::Store:
            f(rd); // value register
            [[fallthrough]];
          case InstrKind::Alu:
          case InstrKind::Load:
          case InstrKind::Branch:
            f(rn);
            if (!useImm)
                f(rm);
            break;
          case InstrKind::MovImm:
          case InstrKind::Jump:
          case InstrKind::Halt:
            break;
        }
    }

    /** @return destination register, or -1 if none. */
    Reg destReg() const;

    /** @return true if the instruction accesses memory. */
    bool isMemAccess() const
    {
        return kind == InstrKind::Load || kind == InstrKind::Store;
    }

    bool operator==(const Instr &) const = default;
};

/**
 * A test program: a straight vector of instructions with index-based
 * branch targets.  Programs generated by the templates are small
 * (tens of instructions, at most a handful of branches).
 */
class Program
{
  public:
    Program() = default;
    explicit Program(std::string name) : progName(std::move(name)) {}

    /** Append an instruction; @return its index. */
    int
    push(Instr i)
    {
        code.push_back(i);
        return static_cast<int>(code.size()) - 1;
    }

    std::size_t size() const { return code.size(); }
    bool empty() const { return code.empty(); }

    const Instr &operator[](std::size_t i) const { return code[i]; }
    Instr &operator[](std::size_t i) { return code[i]; }

    const std::vector<Instr> &instrs() const { return code; }
    std::vector<Instr> &instrs() { return code; }

    const std::string &name() const { return progName; }
    void setName(std::string n) { progName = std::move(n); }

    /**
     * Validate structural well-formedness: register indices in range,
     * targets inside [0, size], final instruction terminates, no
     * architectural instruction after position jumps beyond end.
     * @return empty string if valid, else a diagnostic.
     */
    std::string validate() const;

    /** @return set of registers mentioned anywhere in the program. */
    std::vector<Reg> usedRegs() const;

    /** @return number of conditional branches. */
    int branchCount() const;

    /** @return number of (architectural) memory-access instructions. */
    int memAccessCount() const;

    /** Render in the textual assembly syntax of asm.hh. */
    std::string toString() const;

    /** Instruction-sequence equality; the name is metadata and does
     *  not participate (assemble() stamps its own default name). */
    bool
    operator==(const Program &other) const
    {
        return code == other.code;
    }

  private:
    std::vector<Instr> code;
    std::string progName;
};

} // namespace scamv::bir

#endif // SCAMV_BIR_BIR_HH
