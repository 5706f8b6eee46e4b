/**
 * @file
 * PGM export for eyeballing single bands.
 */

#ifndef EARTHPLUS_RASTER_IO_HH
#define EARTHPLUS_RASTER_IO_HH

#include <string>

#include "raster/image.hh"

namespace earthplus::raster {

/**
 * Export one plane as an 8-bit binary PGM, mapping [0,1] to [0,255].
 *
 * @return true on success.
 */
bool savePgm(const Plane &plane, const std::string &path);

} // namespace earthplus::raster

#endif // EARTHPLUS_RASTER_IO_HH
