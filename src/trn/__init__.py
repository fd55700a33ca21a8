"""Online action detection on chunked video streams with a recurrent
encoder that consults its own short-range future predictions.

Subpackages are deliberately flat: ``numeric`` (LSTM gates and checks),
``model`` (the recurrent cell and fusion variants), ``skeleton`` (pose
features and synthetic skeletons), ``dataio`` (file formats and synthetic data),
``streaming`` (online detector), ``training`` (optimizer and loop),
``evaluate`` (per-frame mAP and reports), ``cli`` (command line).
"""

__version__ = "0.1.0"
