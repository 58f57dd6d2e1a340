#include "exec/ew_step.h"

#include "common/strings.h"

namespace cumulon {

std::string EwStep::ToString() const {
  if (kind == Kind::kUnary) {
    return StrCat(UnaryOpName(uop), "(", scalar, ")");
  }
  const char* suffix = operand == Operand::kRowVector   ? "[row]"
                       : operand == Operand::kColVector ? "[col]"
                                                        : "";
  return swapped
             ? StrCat(BinaryOpName(bop), "(", other_matrix, ", v)", suffix)
             : StrCat(BinaryOpName(bop), "(v, ", other_matrix, ")", suffix);
}

Status ApplyEwStep(const EwStep& step, Tile* value, const Tile* other) {
  if (step.kind == EwStep::Kind::kUnary) {
    return EwUnary(step.uop, *value, step.scalar, value);
  }
  if (other == nullptr) {
    return Status::InvalidArgument(
        StrCat("binary ew step '", step.ToString(), "' missing operand"));
  }
  switch (step.operand) {
    case EwStep::Operand::kFull:
      return step.swapped ? EwBinary(step.bop, *other, *value, value)
                          : EwBinary(step.bop, *value, *other, value);
    case EwStep::Operand::kRowVector:
      return EwBroadcast(step.bop, *value, *other, /*row_vector=*/true,
                         step.swapped, value);
    case EwStep::Operand::kColVector:
      return EwBroadcast(step.bop, *value, *other, /*row_vector=*/false,
                         step.swapped, value);
  }
  return Status::Internal("unhandled operand kind");
}

}  // namespace cumulon
