#include "kernel.hh"

#include <sstream>

#include "util/logging.hh"

namespace gcl::ptx
{

Kernel::Kernel(std::string name, std::vector<Instruction> insts,
               uint16_t num_regs, uint16_t num_params,
               uint32_t shared_mem_bytes)
    : name_(std::move(name)), insts_(std::move(insts)),
      numRegs_(num_regs), numParams_(num_params),
      sharedMemBytes_(shared_mem_bytes)
{
    gcl_assert(!insts_.empty(), "kernel '", name_, "' has no instructions");
}

std::vector<size_t>
Kernel::globalLoadPcs() const
{
    std::vector<size_t> pcs;
    for (size_t pc = 0; pc < insts_.size(); ++pc)
        if (insts_[pc].isGlobalLoad())
            pcs.push_back(pc);
    return pcs;
}

std::string
Kernel::disassemble() const
{
    std::ostringstream oss;
    oss << ".kernel " << name_ << " (regs=" << numRegs_
        << ", params=" << numParams_
        << ", smem=" << sharedMemBytes_ << "B)\n";
    for (size_t pc = 0; pc < insts_.size(); ++pc) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%4zu: ", pc);
        oss << buf << insts_[pc].toString() << '\n';
    }
    return oss.str();
}

} // namespace gcl::ptx
