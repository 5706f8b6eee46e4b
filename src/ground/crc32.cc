#include "ground/crc32.hh"

#include "codec/kernels.hh"

namespace earthplus::ground {

uint32_t
crc32Update(uint32_t prev, const uint8_t *data, size_t size)
{
    return codec::kernels::active().crc32(prev, data, size);
}

uint32_t
crc32(const uint8_t *data, size_t size)
{
    return crc32Update(0, data, size);
}

} // namespace earthplus::ground
