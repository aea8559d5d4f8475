package tile

// The fixtures the external tests share with this package's own.
var CodecTile, RealShapedTile = codecTile, realShapedTile
